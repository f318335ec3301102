//go:build race

package httpio

func init() { raceDetector = true }
