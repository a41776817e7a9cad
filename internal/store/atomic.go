package store

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// tmpPrefix marks in-progress writes; Open sweeps leftovers from crashed
// writers out of a store directory.
const tmpPrefix = ".mps-tmp-"

// WriteFileAtomic writes a file crash-safely: the content goes to a
// temporary file in path's directory, is flushed and fsynced, and then
// renamed over path. Readers never observe a partial file, and a crash at
// any point leaves either the old contents or the new — never a torn
// write. It returns the number of bytes written.
//
// This is the single durability primitive shared by Dir (structure files
// and the manifest) and the facade's SaveFile.
func WriteFileAtomic(path string, write func(io.Writer) error) (int64, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return 0, fmt.Errorf("atomic write %s: %w", path, err)
	}
	tmp := f.Name()
	bw := bufio.NewWriter(f)
	cw := &countingWriter{w: bw}
	err = write(cw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("atomic write %s: %w", path, err)
	}
	syncDir(dir)
	return cw.n, nil
}

// Quarantine renames the file name inside dir, one that did not parse,
// aside to name.corrupt-<unix ns> with its bytes intact, and returns the
// new name. The name never starts with tmpPrefix, so Open's temp sweep
// keeps the quarantined bytes for inspection. Dir's manifest and the job
// scheduler's state file share it, so one corrupt file cannot keep a
// server from booting.
func Quarantine(dir, name string) (string, error) {
	aside := fmt.Sprintf("%s.corrupt-%d", name, time.Now().UnixNano())
	if err := os.Rename(filepath.Join(dir, name), filepath.Join(dir, aside)); err != nil {
		return "", err
	}
	return aside, nil
}

// HasQuarantined reports whether dir holds a file Quarantine moved name
// aside to, from this process or an earlier one.
func HasQuarantined(dir, name string) (bool, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, f := range files {
		if strings.HasPrefix(f.Name(), name+".corrupt-") {
			return true, nil
		}
	}
	return false, nil
}

// syncDir fsyncs a directory so the rename itself is durable. Best-effort:
// some filesystems refuse to sync directories, and the write is already
// atomic without it.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
