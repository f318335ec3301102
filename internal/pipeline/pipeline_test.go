package pipeline

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestInferHonoursContextFirst(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	// The context has no generation: reaching the forest would panic,
	// proving the context check runs before any classification work.
	if err := infer(&VetContext{Ctx: ctx, Sub: &Submission{}}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("infer(expired ctx) = %v, want context.DeadlineExceeded", err)
	}
}
