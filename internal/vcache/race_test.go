//go:build race

package vcache

func init() { raceDetector = true }
