package engine

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

// TestAcquireBlocksAndCancels exercises the wait path: with the only
// machine checked out, acquire blocks, honours cancellation with
// ErrCancelled, and succeeds again once the machine is released.
func TestAcquireBlocksAndCancels(t *testing.T) {
	im, err := core.MustLoad("p.\n").CompileQuery("p.")
	if err != nil {
		t.Fatal(err)
	}
	p := New(WithPoolSize(1))

	m, ip, err := p.acquire(context.Background(), im, nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := p.acquire(ctx, im, nil); !errors.Is(err, machine.ErrCancelled) {
		t.Fatalf("acquire on exhausted pool: %v, want ErrCancelled", err)
	}

	ip.free <- m
	m2, _, err := p.acquire(context.Background(), im, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m {
		t.Fatal("released machine was not reused")
	}
	ip.free <- m2
}
