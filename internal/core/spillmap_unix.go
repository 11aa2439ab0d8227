//go:build unix

package core

import (
	"os"
	"syscall"
)

// SpillSupported reports whether this platform can read spill runs (nil)
// or not (errors.ErrUnsupported): a finished run is read through a
// read-only shared mapping of its file.
func SpillSupported() error { return nil }

// mapExtent maps bytes [off, off+n) of f read-only. The mapping starts at
// off rounded down to the page size; at is where byte off lies in it. n
// must be positive.
func mapExtent(f *os.File, off int64, n int) (m []byte, at int, err error) {
	at = int(off % int64(os.Getpagesize()))
	m, err = syscall.Mmap(int(f.Fd()), off-int64(at), at+n, syscall.PROT_READ, syscall.MAP_SHARED)
	return m, at, err
}

// unmapExtent removes a mapping made by mapExtent.
func unmapExtent(m []byte) error { return syscall.Munmap(m) }
