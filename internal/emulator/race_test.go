//go:build race

package emulator

func init() { raceDetector = true }
