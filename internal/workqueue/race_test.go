//go:build race

package workqueue

func init() { raceDetector = true }
