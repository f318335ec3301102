package ml_test

import (
	"fmt"

	"apichecker/internal/ml"
)

// ExampleRandomForest demonstrates the deployed classifier on a toy
// problem: apps that touch both "SMS" (bit 0) and "network" (bit 1) are
// malicious.
func ExampleRandomForest() {
	app := func(bits ...int) ml.Vector {
		v := ml.NewVector(4)
		for _, b := range bits {
			v.Set(b)
		}
		return v
	}
	d := ml.NewDataset(4)
	for i := 0; i < 30; i++ {
		_ = d.Add(app(0, 1), true)  // SMS + network
		_ = d.Add(app(0), false)    // SMS only: a messaging app
		_ = d.Add(app(1, 2), false) // network + UI: a browser
		_ = d.Add(app(3), false)    // neither
	}

	rf := ml.NewRandomForest(ml.DefaultForestConfig(1))
	if err := rf.Train(d); err != nil {
		panic(err)
	}
	fmt.Println("SMS+network app malicious:", rf.Predict(app(0, 1)))
	fmt.Println("SMS-only app malicious:  ", rf.Predict(app(0)))
	// Output:
	// SMS+network app malicious: true
	// SMS-only app malicious:   false
}
