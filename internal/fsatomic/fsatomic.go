// Package fsatomic writes files atomically: content goes to a temporary
// file in the destination directory and is renamed into place only after
// it has been fully written and synced. A crash, panic, or SIGINT mid-write
// can therefore never leave a truncated file under the destination name —
// the previous version (if any) survives intact until the rename.
//
// The campaign result writers (ilanexp -out, -perfetto, -attr) and
// the campaign cache (internal/cellcache) share this helper: both persist
// JSON documents whose readers reject partial content, so a torn write
// would clobber a good file with an unreadable one.
package fsatomic

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with the bytes produced by write.
// The temporary file lives in path's directory (renames across
// filesystems are not atomic), is fsynced before the rename, and is
// removed on any failure, so an aborted write leaves neither a torn
// destination nor stray temp files behind.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	// Non-regular destinations (/dev/null, fifos, character devices) can't
	// be atomically replaced — renaming over them would swap the node for
	// a regular file. Stream into them directly; atomicity is meaningless
	// for a sink that keeps no content anyway.
	if info, statErr := os.Stat(path); statErr == nil && !info.Mode().IsRegular() {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return fmt.Errorf("fsatomic: %w", err)
		}
		if err := write(f); err != nil {
			f.Close()
			return fmt.Errorf("fsatomic: writing %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("fsatomic: %w", err)
		}
		return nil
	}
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return fmt.Errorf("fsatomic: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("fsatomic: writing %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("fsatomic: %w", err)
	}
	// CreateTemp uses 0600; published files follow the usual create mode
	// (the process umask applied to 0644), matching what os.Create gives.
	if err = tmp.Chmod(0o644); err != nil {
		return fmt.Errorf("fsatomic: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("fsatomic: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fsatomic: %w", err)
	}
	return nil
}

// WriteFileBytes is WriteFile for a pre-rendered payload.
func WriteFileBytes(path string, data []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
