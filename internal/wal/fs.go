// Filesystem abstraction for the WAL, so the fault-injection tests can
// interpose on writes and fsyncs without touching the segment logic. An
// on-disk log uses the OS filesystem (Config.FS == nil); NewLog runs the
// same segment logic on memFS.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// File is the subset of *os.File the segment writer and readers need.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
}

// FS is the filesystem surface the durable WAL runs on. All paths are
// absolute (the DurableLog joins its directory itself).
type FS interface {
	MkdirAll(dir string) error
	// ReadDir returns the file names (not paths) in dir.
	ReadDir(dir string) ([]string, error)
	// Create opens name for writing, creating or truncating it.
	Create(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// OpenAppend opens name for appending.
	OpenAppend(name string) (File, error)
	Truncate(name string, size int64) error
	Remove(name string) error
	// SyncDir fsyncs the directory itself, making its entries (files
	// created or removed in it) durable. Creating and fsyncing a file
	// does not persist its directory entry; until SyncDir, a power loss
	// can make the file unreachable even though its data survived.
	SyncDir(dir string) error
}

// osFS is the production FS.
type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }
func (osFS) Remove(name string) error               { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// memFS is an FS held in process memory: the filesystem NewLog's log
// runs on. Nothing lies beneath it, so syncs are no-ops and nothing
// survives the process. A fresh memFS directory is never recovered, so
// Truncate and OpenAppend, which only OpenDir's recovery of existing
// segments calls, are unsupported. Directories are implicit: a file
// lives in filepath.Dir of its path.
type memFS struct {
	mu    sync.Mutex //ssi:lock level=30 name=wal.memfs
	files map[string]*memData
}

// memData is one file's contents, guarded by memFS.mu. A removed file's
// data stays readable through handles already open on it, as an
// unlinked file's does on a POSIX filesystem.
type memData struct{ b []byte }

func newMemFS() *memFS { return &memFS{files: make(map[string]*memData)} }

func (*memFS) MkdirAll(string) error { return nil }

func (m *memFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *memFS) Create(name string) (File, error) {
	d := &memData{}
	m.mu.Lock()
	m.files[name] = d
	m.mu.Unlock()
	return &memFile{fs: m, d: d}, nil
}

func (m *memFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[name]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return &memFile{fs: m, d: d}, nil
}

func (*memFS) OpenAppend(string) (File, error) { return nil, errors.ErrUnsupported }
func (*memFS) Truncate(string, int64) error    { return errors.ErrUnsupported }
func (*memFS) SyncDir(string) error            { return nil }

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

// memFile is a handle on one memData: writes append, reads advance the
// handle's own offset.
type memFile struct {
	fs  *memFS
	d   *memData
	off int
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.off >= len(f.d.b) {
		return 0, io.EOF
	}
	n := copy(p, f.d.b[f.off:])
	f.off += n
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	f.d.b = append(f.d.b, p...)
	f.fs.mu.Unlock()
	return len(p), nil
}

func (*memFile) Sync() error  { return nil }
func (*memFile) Close() error { return nil }

// FaultFS is a test-only FS over the real filesystem that models the
// failure a write-ahead log exists to survive: data that was written but
// not fsynced is lost at a crash. It tracks, per file it opened for
// writing, how many bytes the last successful fsync covered; Crash()
// truncates every such file to its synced length — exactly what the
// kernel page cache loses when the machine dies — so a test can run a
// workload, "crash", reopen the directory, and assert the recovery
// contract. Directory entries are modelled too: a file created but
// whose directory was not successfully SyncDir'd since is REMOVED at
// Crash() — a power loss can lose the entry of a freshly created file
// even when its data was fsynced, leaving the data unreachable. Fsyncs
// themselves (file and directory alike) can be made to silently
// disappear (DropFutureSyncs / DropSyncsAfter, modelling a dropped
// final fsync) or to fail (FailSyncs).
//
// FaultFS must only be used from tests. It assumes append-only writes
// (which is all the WAL does).
type FaultFS struct {
	mu sync.Mutex //ssi:lock level=30 name=wal.faultfs
	// written and synced are byte lengths per absolute path.
	written map[string]int64
	synced  map[string]int64
	// newEntries tracks, per directory, files created since the last
	// successful SyncDir: their directory entries are volatile and lost
	// at Crash.
	newEntries map[string]map[string]bool
	// removed tracks, per directory, files removed since the last
	// successful SyncDir, with their durable content (what the platter
	// held: the fsynced prefix). An unlink is a directory mutation like
	// a create: until the directory is fsynced, a power loss can leave
	// the old entry — and the file's durable data — in place, so Crash
	// restores these. Checkpoint GC's safety depends on this model:
	// either the removal's covering SyncDir succeeded (and so did the
	// checkpoint's, ordered before it), or the segments come back.
	removed map[string]map[string][]byte
	// allowSyncs is how many more fsyncs succeed before they are
	// silently dropped; -1 means unlimited.
	allowSyncs int64
	syncErr    error
	syncs      int64
}

// NewFaultFS returns a FaultFS with fsyncs working normally.
func NewFaultFS() *FaultFS {
	return &FaultFS{
		written:    make(map[string]int64),
		synced:     make(map[string]int64),
		newEntries: make(map[string]map[string]bool),
		removed:    make(map[string]map[string][]byte),
		allowSyncs: -1,
	}
}

// DropFutureSyncs makes every subsequent fsync a silent no-op: writes
// keep landing in the "page cache" (the real file) but are lost at
// Crash().
func (f *FaultFS) DropFutureSyncs() { f.DropSyncsAfter(0) }

// DropSyncsAfter lets the next n fsyncs succeed and silently drops every
// one after that.
func (f *FaultFS) DropSyncsAfter(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.allowSyncs = int64(n)
}

// FailSyncs makes every subsequent fsync return err (nil restores normal
// operation).
func (f *FaultFS) FailSyncs(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncErr = err
}

// Syncs returns how many fsyncs were attempted (including dropped ones).
func (f *FaultFS) Syncs() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncs
}

// Crash simulates a machine crash: files whose directory entry was
// never made durable (created with no successful SyncDir since) are
// removed outright — their data is unreachable, however much of it was
// fsynced — and every other file this FS opened for writing is
// truncated to the length its last successful fsync covered, discarding
// the unsynced tail the page cache would lose. The caller must have
// stopped all writers first (the "process" is dead).
func (f *FaultFS) Crash() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for dir, ents := range f.newEntries {
		for name := range ents {
			if err := os.Remove(name); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("wal: crash unlink %s: %w", filepath.Base(name), err)
			}
			delete(f.written, name)
			delete(f.synced, name)
		}
		delete(f.newEntries, dir)
	}
	// Volatile unlinks come back: the directory holding them was never
	// fsynced after the removal, so the old entry — and the file's
	// durable content — survives the power loss.
	for dir, ents := range f.removed {
		for name, content := range ents {
			if err := os.WriteFile(name, content, 0o644); err != nil {
				return fmt.Errorf("wal: crash restore %s: %w", filepath.Base(name), err)
			}
		}
		delete(f.removed, dir)
	}
	for name, written := range f.written {
		synced := f.synced[name]
		if synced < written {
			if err := os.Truncate(name, synced); err != nil {
				return fmt.Errorf("wal: crash truncate %s: %w", filepath.Base(name), err)
			}
		}
	}
	return nil
}

func (f *FaultFS) MkdirAll(dir string) error            { return osFS{}.MkdirAll(dir) }
func (f *FaultFS) ReadDir(dir string) ([]string, error) { return osFS{}.ReadDir(dir) }
func (f *FaultFS) Open(name string) (File, error)       { return osFS{}.Open(name) }

func (f *FaultFS) Truncate(name string, size int64) error {
	if err := (osFS{}).Truncate(name, size); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if w, ok := f.written[name]; ok && w > size {
		f.written[name] = size
	}
	if s, ok := f.synced[name]; ok && s > size {
		f.synced[name] = size
	}
	return nil
}

func (f *FaultFS) Remove(name string) error {
	dir := filepath.Dir(name)
	// Capture the file's durable content before unlinking: if the
	// file's own directory entry was durable, the unlink is volatile
	// until the next successful SyncDir, and Crash restores it. A file
	// whose entry was never made durable (still in newEntries) would
	// not have survived a crash anyway, so nothing is captured for it.
	f.mu.Lock()
	entryDurable := f.newEntries[dir] == nil || !f.newEntries[dir][name]
	durableLen, tracked := f.synced[name]
	f.mu.Unlock()
	var content []byte
	if entryDurable {
		b, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		if tracked && durableLen < int64(len(b)) {
			b = b[:durableLen]
		}
		content = b
	}
	if err := (osFS{}).Remove(name); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.written, name)
	delete(f.synced, name)
	if ents := f.newEntries[dir]; ents != nil {
		delete(ents, name)
	}
	if entryDurable {
		if f.removed[dir] == nil {
			f.removed[dir] = make(map[string][]byte)
		}
		f.removed[dir][name] = content
	}
	return nil
}

// SyncDir makes the directory's entries durable, subject to the same
// drop/fail knobs as file fsyncs: a dropped SyncDir leaves every entry
// created since the last successful one volatile (lost at Crash).
func (f *FaultFS) SyncDir(dir string) error {
	f.mu.Lock()
	f.syncs++
	if f.syncErr != nil {
		err := f.syncErr
		f.mu.Unlock()
		return err
	}
	if f.allowSyncs == 0 {
		f.mu.Unlock()
		return nil
	}
	if f.allowSyncs > 0 {
		f.allowSyncs--
	}
	f.mu.Unlock()
	if err := (osFS{}).SyncDir(dir); err != nil {
		return err
	}
	f.mu.Lock()
	delete(f.newEntries, dir)
	delete(f.removed, dir)
	f.mu.Unlock()
	return nil
}

func (f *FaultFS) Create(name string) (File, error) {
	file, err := osFS{}.Create(name)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.written[name] = 0
	f.synced[name] = 0
	dir := filepath.Dir(name)
	if f.newEntries[dir] == nil {
		f.newEntries[dir] = make(map[string]bool)
	}
	f.newEntries[dir][name] = true
	f.mu.Unlock()
	return &faultFile{fs: f, name: name, f: file}, nil
}

func (f *FaultFS) OpenAppend(name string) (File, error) {
	file, err := osFS{}.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	info, err := os.Stat(name)
	if err != nil {
		file.Close()
		return nil, err
	}
	f.mu.Lock()
	// Pre-existing contents (a recovered segment) are considered
	// durable: recovery already truncated to what survived.
	f.written[name] = info.Size()
	f.synced[name] = info.Size()
	f.mu.Unlock()
	return &faultFile{fs: f, name: name, f: file}, nil
}

// faultFile tracks written/synced lengths through its FaultFS.
type faultFile struct {
	fs   *FaultFS
	name string
	f    File
}

func (ff *faultFile) Read(p []byte) (int, error) { return ff.f.Read(p) }
func (ff *faultFile) Close() error               { return ff.f.Close() }

func (ff *faultFile) Write(p []byte) (int, error) {
	n, err := ff.f.Write(p)
	if n > 0 {
		ff.fs.mu.Lock()
		ff.fs.written[ff.name] += int64(n)
		ff.fs.mu.Unlock()
	}
	return n, err
}

func (ff *faultFile) Sync() error {
	ff.fs.mu.Lock()
	ff.fs.syncs++
	if ff.fs.syncErr != nil {
		err := ff.fs.syncErr
		ff.fs.mu.Unlock()
		return err
	}
	if ff.fs.allowSyncs == 0 {
		// Dropped: the data stays in the "page cache" only.
		ff.fs.mu.Unlock()
		return nil
	}
	if ff.fs.allowSyncs > 0 {
		ff.fs.allowSyncs--
	}
	written := ff.fs.written[ff.name]
	ff.fs.mu.Unlock()
	if err := ff.f.Sync(); err != nil {
		return err
	}
	ff.fs.mu.Lock()
	if written > ff.fs.synced[ff.name] {
		ff.fs.synced[ff.name] = written
	}
	ff.fs.mu.Unlock()
	return nil
}
