package framelog

import (
	"errors"
	"io/fs"
	"testing"
)

// ErrInjected is the error every injected fault returns (wrapped in
// *fs.PathError the way the os package would).
var ErrInjected = errors.New("injected fault")

// Faults is the failing-filesystem shim: installed, every file a Log opens
// goes through it, and a test arms the failure it wants. It is exported
// from a _test file so the owner-level tests in package framelog_test can
// drive workqueue and vcache over it. Not for concurrent use: every test
// arms it and drives the log from one goroutine.
type Faults struct {
	// While set, every open, Read or Truncate fails.
	FailOpen, FailRead, FailTruncate bool

	failIn int // writes until the one that fails; 0 = disarmed
	after  int // bytes of that write that reach the file first
}

// InstallFaults routes openFile through a new, disarmed Faults until the
// test ends.
func InstallFaults(t testing.TB) *Faults {
	x := &Faults{}
	real := openFile
	openFile = func(name string, flag int, perm fs.FileMode) (file, error) {
		if x.FailOpen {
			return nil, &fs.PathError{Op: "open", Path: name, Err: ErrInjected}
		}
		f, err := real(name, flag, perm)
		if err != nil {
			return nil, err
		}
		return &faultyFile{file: f, x: x, name: name}, nil
	}
	t.Cleanup(func() { openFile = real })
	return x
}

// FailWrite arms the k-th write from now (1 = the next) to fail after n of
// its bytes have reached the file: n = 0 is a failed write, n > 0 a short
// one.
func (x *Faults) FailWrite(k, n int) { x.failIn, x.after = k, n }

type faultyFile struct {
	file
	x    *Faults
	name string
}

func (f *faultyFile) Write(p []byte) (int, error) {
	if f.x.failIn == 0 {
		return f.file.Write(p)
	}
	if f.x.failIn--; f.x.failIn > 0 {
		return f.file.Write(p)
	}
	n, _ := f.file.Write(p[:min(f.x.after, len(p))])
	return n, &fs.PathError{Op: "write", Path: f.name, Err: ErrInjected}
}

func (f *faultyFile) Read(p []byte) (int, error) {
	if f.x.FailRead {
		return 0, &fs.PathError{Op: "read", Path: f.name, Err: ErrInjected}
	}
	return f.file.Read(p)
}

func (f *faultyFile) Truncate(size int64) error {
	if f.x.FailTruncate {
		return &fs.PathError{Op: "truncate", Path: f.name, Err: ErrInjected}
	}
	return f.file.Truncate(size)
}
