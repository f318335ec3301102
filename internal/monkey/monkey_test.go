package monkey

import "testing"

func TestProductionConfigRealistic(t *testing.T) {
	c := ProductionConfig(1)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if !c.Realistic() {
		t.Error("production config not realistic")
	}
	if c.Events != 5000 {
		t.Errorf("production events = %d, want 5000", c.Events)
	}
}

func TestRealism(t *testing.T) {
	cases := []struct {
		c    Config
		want bool
	}{
		{Config{Events: 1, ThrottleMs: 500, PctTouch: 0.65}, true},
		{Config{Events: 1, ThrottleMs: 500, PctTouch: 0.5}, true},
		{Config{Events: 1, ThrottleMs: 500, PctTouch: 0.8}, true},
		{Config{Events: 1, ThrottleMs: 100, PctTouch: 0.65}, false}, // machine-gun input
		{Config{Events: 1, ThrottleMs: 500, PctTouch: 0.95}, false}, // unnatural mix
		{Config{Events: 1, ThrottleMs: 500, PctTouch: 0.2}, false},
	}
	for i, tc := range cases {
		if got := tc.c.Realistic(); got != tc.want {
			t.Errorf("case %d: Realistic() = %v, want %v", i, got, tc.want)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Events: 0, ThrottleMs: 500, PctTouch: 0.5},
		{Events: 10, ThrottleMs: -1, PctTouch: 0.5},
		{Events: 10, ThrottleMs: 500, PctTouch: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
	}
}
