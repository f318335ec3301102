//go:build race

package apk

func init() { raceDetector = true }
