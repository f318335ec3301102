//go:build race

package gateway

func init() { raceDetector = true }
