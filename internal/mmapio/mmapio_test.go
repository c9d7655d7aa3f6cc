package mmapio

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// writeTemp writes b to a fresh file and returns its path.
func writeTemp(t *testing.T, b []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenMatchesReadFile: the mapping's bytes are the file's bytes,
// across more than one page, and on Linux they are a real mapping.
func TestOpenMatchesReadFile(t *testing.T) {
	b := make([]byte, 3*os.Getpagesize()+17)
	for i := range b {
		b[i] = byte(i * 31)
	}
	path := writeTemp(t, b)
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Data(), want) {
		t.Fatal("Data() differs from os.ReadFile")
	}
	if m.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", m.Len(), len(want))
	}
	if runtime.GOOS == "linux" && !m.Mapped() {
		t.Fatal("Mapped() = false on linux")
	}
}

func TestOpenEmptyFile(t *testing.T) {
	m, err := Open(writeTemp(t, nil))
	if err != nil {
		t.Fatalf("empty file: %v", err)
	}
	if m.Len() != 0 || len(m.Data()) != 0 {
		t.Fatalf("empty file mapped %d bytes", m.Len())
	}
	if m.Mapped() {
		t.Fatal("empty file reports a real mapping")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close on empty mapping: %v", err)
	}
}

func TestOpenMissingPath(t *testing.T) {
	m, err := Open(filepath.Join(t.TempDir(), "absent"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Open(missing) = %v, %v; want fs.ErrNotExist", m, err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	m, err := Open(writeTemp(t, []byte("snapshot bytes")))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if m.Data() != nil || m.Len() != 0 {
		t.Fatalf("closed mapping still exposes %d bytes", m.Len())
	}
}
