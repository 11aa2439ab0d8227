//go:build !unix

package core

import (
	"errors"
	"os"
)

// SpillSupported reports whether this platform can read spill runs (nil)
// or not (errors.ErrUnsupported): a finished run is read through a
// read-only shared mapping of its file, which this platform lacks.
func SpillSupported() error { return errors.ErrUnsupported }

// mapExtent fails: there is no mapping to read a run through here.
func mapExtent(*os.File, int64, int) ([]byte, int, error) {
	return nil, 0, errors.ErrUnsupported
}

// unmapExtent is never reached: no mapping was made.
func unmapExtent([]byte) error { return nil }
