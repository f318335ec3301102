//go:build race

package vetsvc

func init() { raceDetector = true }
