package store

// This file is the audited write-protocol helper: every byte the store
// puts on disk goes through atomicWrite (temp file in the target
// directory → write → fsync → close → rename → fsync directory), and
// every filesystem primitive the store touches is reached through the
// FS interface so tests can inject faults (ENOSPC, torn writes, failed
// renames). cmd/golint-internal enforces the single-sourcing: bare
// os.Rename / os.WriteFile calls are forbidden anywhere else in this
// package.

import (
	"fmt"
	"io"
	"os"
)

// File is the writable-file surface the store needs: sequential writes,
// durability, and close. *os.File satisfies it.
type File interface {
	io.Writer
	// Sync flushes the file's data to stable storage (fsync).
	Sync() error
	// Close releases the handle; a Close error after a successful Sync
	// is still a write-protocol failure.
	Close() error
}

// FS is the filesystem the store runs on. The default implementation
// (OS) passes straight through to the os package; fault-injecting
// wrappers (FaultFS) simulate ENOSPC, torn writes and failed renames
// for the chaos harness without touching a real disk's failure modes.
type FS interface {
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string) error
	// ReadDir lists a directory (sorted by filename, like os.ReadDir).
	ReadDir(path string) ([]os.DirEntry, error)
	// ReadFile returns a file's full contents.
	ReadFile(path string) ([]byte, error)
	// Create truncates-or-creates a file for writing.
	Create(path string) (File, error)
	// OpenAppend opens a file for appending, creating it if needed.
	OpenAppend(path string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(path string) error
	// SyncDir fsyncs a directory, making previously renamed entries
	// durable against power loss.
	SyncDir(path string) error
}

// OS is the real filesystem: the FS implementation production stores
// run on.
type OS struct{}

// MkdirAll implements FS.
func (OS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

// ReadDir implements FS.
func (OS) ReadDir(path string) ([]os.DirEntry, error) { return os.ReadDir(path) }

// ReadFile implements FS.
func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// Create implements FS.
func (OS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

// OpenAppend implements FS.
func (OS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
}

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(path string) error { return os.Remove(path) }

// SyncDir implements FS.
func (OS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// atomicWrite is the store's one write path: it writes data to a
// temporary file in dir, fsyncs it, atomically renames it to path, and
// fsyncs the directory so the rename itself is durable. A crash at any
// point leaves either the old state or the new entry — never a partial
// entry under the final name (partial temp files are swept into
// quarantine at the next Open). tmpName must be unique per concurrent
// writer; on any error the temp file is removed best-effort.
func atomicWrite(fs FS, dir, tmpName, path string, data []byte) error {
	tmp := dir + "/" + tmpName
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", tmp, err)
	}
	cleanup := func(err error) error {
		fs.Remove(tmp) // best-effort; Open quarantines survivors
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return cleanup(fmt.Errorf("store: write %s: %w", tmp, err))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return cleanup(fmt.Errorf("store: fsync %s: %w", tmp, err))
	}
	if err := f.Close(); err != nil {
		return cleanup(fmt.Errorf("store: close %s: %w", tmp, err))
	}
	if err := fs.Rename(tmp, path); err != nil {
		return cleanup(fmt.Errorf("store: rename %s: %w", tmp, err))
	}
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("store: fsync dir %s: %w", dir, err)
	}
	return nil
}
