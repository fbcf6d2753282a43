// Package runcache persists experiment results as content-addressed JSON.
//
// A Cache maps a canonical key — the SHA-256 of a versioned, deterministic
// JSON encoding of the run's full configuration — to the JSON encoding of
// its result. Entries live under dir/<k0k1>/<key>.json (sharded by the
// first key byte) and are written atomically, so concurrent writers and
// multiple processes can share one cache directory. A small in-memory
// layer sits in front of the disk so repeated lookups within one process
// never re-read files.
//
// The cache is strictly best-effort: a missing, unreadable, or corrupt
// entry is reported as a miss (and counted in Stats.Errors), never as a
// failure of the experiment itself.
//
// Callers turn a key into a value with Resolve, which puts the Cache's
// single-flight registry in front of Get and Put.
//
// Two hardening layers back that contract (DESIGN.md §14). Every disk
// entry is checksummed — the payload is prefixed with its own SHA-256 —
// so a truncated or bit-flipped file is detected on read, moved to a
// quarantine sidecar directory (dir/quarantine/) for post-mortems, and
// reported as a miss that the caller transparently re-simulates. And
// persistent write failures (disk full, EIO) flip the cache into a
// counted degraded mode: after degradedAfter consecutive failed writes,
// Put stops touching the disk (the in-memory layer still works), so a
// sick filesystem costs re-simulation on the next process, never a
// failed campaign in this one.
package runcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"invisifence/internal/faultinject"
)

// schemaVersion is folded into every key. Bump it whenever the meaning of
// a cached payload changes (e.g. a simulator fix that alters results for
// the same configuration), which invalidates all prior entries at once.
const schemaVersion = "runcache/v1"

// Key derives the canonical content-addressed key for a run from its
// identifying parts (typically the full configuration plus a label such as
// "result"). Parts are encoded with encoding/json, which is deterministic
// for structs (declaration order) and maps (sorted keys), so the key is
// stable across processes and machines. Parts must be JSON-encodable.
func Key(parts ...any) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", schemaVersion)
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			return "", fmt.Errorf("runcache: encoding key part: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// MustKey is Key for parts known to be encodable (plain config structs);
// it panics on encoding failure.
func MustKey(parts ...any) string {
	k, err := Key(parts...)
	if err != nil {
		panic(err)
	}
	return k
}

// Stats counts cache traffic since Open.
type Stats struct {
	// Hits is the number of Gets served from memory or disk.
	Hits uint64
	// MemHits is the subset of Hits served without touching disk.
	MemHits uint64
	// Misses is the number of Gets that found no entry.
	Misses uint64
	// Puts is the number of entries written.
	Puts uint64
	// Errors counts unreadable/corrupt entries and failed writes; these
	// surface as misses or silently-skipped puts, never as run failures.
	Errors uint64
	// Quarantined counts corrupt disk entries (checksum or decode
	// failures) moved to the quarantine sidecar directory.
	Quarantined uint64
	// WriteErrors counts failed disk writes; degradedAfter consecutive
	// failures flip the cache into degraded (disk-bypass) mode.
	WriteErrors uint64
	// PutsBypassed counts Puts that skipped the disk because the cache
	// was degraded (they still landed in the in-memory layer).
	PutsBypassed uint64
	// Degraded reports disk-bypass mode at snapshot time.
	Degraded bool
}

// String renders the stats for CLI output.
func (s Stats) String() string {
	out := fmt.Sprintf("cache: %d hits (%d in-memory), %d misses, %d puts, %d errors",
		s.Hits, s.MemHits, s.Misses, s.Puts, s.Errors)
	if s.Quarantined > 0 {
		out += fmt.Sprintf(", %d quarantined", s.Quarantined)
	}
	if s.Degraded {
		out += fmt.Sprintf(", DEGRADED (%d write errors, %d puts bypassed)", s.WriteErrors, s.PutsBypassed)
	}
	return out
}

// degradedAfter is the consecutive-write-failure threshold that flips
// the cache into disk-bypass mode. One failure can be a transient blip
// (the campaign retries the put on the next cell); a run of them means
// the filesystem is sick and every further attempt just burns syscalls.
const degradedAfter = 3

// Injection sites probed by the cache when an injector is armed.
const (
	// SiteRead fires on disk entry reads (error = unreadable file,
	// corrupt = bit-flipped payload caught by the checksum).
	SiteRead = "runcache.read"
	// SiteWrite fires on disk entry writes (error = failed write,
	// feeding the degraded-mode counter).
	SiteWrite = "runcache.write"
)

// Cache is a persistent, process-shared result store. The zero value is
// not usable; call Open.
type Cache struct {
	dir string // "" = memory-only
	inj *faultinject.Injector

	mu         sync.Mutex
	mem        map[string][]byte
	stats      Stats
	degraded   bool
	consecWerr int

	flight flight // Resolve's single-flight registry
}

// Open returns a cache rooted at dir, creating it if needed. An empty dir
// yields a memory-only cache (useful for tests and one-shot runs).
func Open(dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("runcache: %w", err)
		}
	}
	return &Cache{dir: dir, mem: make(map[string][]byte)}, nil
}

// SetInjector arms fault injection at the cache's I/O seams and its
// flight leader (nil keeps the disarmed no-op). Call before first use.
func (c *Cache) SetInjector(in *faultinject.Injector) {
	c.inj = in
	c.flight.inj = in
}

// Dir returns the cache's root directory ("" for memory-only).
func (c *Cache) Dir() string { return c.dir }

// path shards entries by the first key byte to keep directories small.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// quarantinePath is where a corrupt entry is moved for post-mortems.
func (c *Cache) quarantinePath(key string) string {
	return filepath.Join(c.dir, "quarantine", key+".json")
}

// encodeEntry prefixes the payload with its SHA-256, newline-separated.
// JSON payloads carry no raw newlines, so the first line is always the
// checksum.
func encodeEntry(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, len(payload)+sha256.Size*2+1)
	out = append(out, hex.EncodeToString(sum[:])...)
	out = append(out, '\n')
	return append(out, payload...)
}

// decodeEntry verifies a disk entry's checksum line and returns the
// payload. It reports false for any malformed or mismatching entry —
// including pre-checksum legacy files, which are indistinguishable from
// truncation and handled the same way (quarantine + re-simulate).
func decodeEntry(raw []byte) ([]byte, bool) {
	nl := bytes.IndexByte(raw, '\n')
	if nl != sha256.Size*2 {
		return nil, false
	}
	payload := raw[nl+1:]
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != string(raw[:nl]) {
		return nil, false
	}
	return payload, true
}

// quarantine moves a corrupt entry into the sidecar directory
// (best-effort: a failed move falls back to deletion so the corrupt
// bytes can never satisfy a future read either way).
func (c *Cache) quarantine(key string) {
	p := c.path(key)
	q := c.quarantinePath(key)
	if err := os.MkdirAll(filepath.Dir(q), 0o755); err == nil {
		if os.Rename(p, q) == nil {
			c.count(func(s *Stats) { s.Quarantined++ })
			return
		}
	}
	os.Remove(p)
	c.count(func(s *Stats) { s.Quarantined++ })
}

// Get looks up key and, when present, decodes the stored JSON into out.
// It reports whether an entry was found. Corrupt entries are quarantined
// and count as misses.
func (c *Cache) Get(key string, out any) (bool, error) {
	c.mu.Lock()
	data, inMem := c.mem[key]
	c.mu.Unlock()
	if !inMem {
		if c.dir == "" {
			c.count(func(s *Stats) { s.Misses++ })
			return false, nil
		}
		b, err := os.ReadFile(c.path(key))
		if err == nil {
			err = c.inj.Err(SiteRead)
		}
		if err != nil {
			if !os.IsNotExist(err) {
				c.count(func(s *Stats) { s.Errors++ })
			}
			c.count(func(s *Stats) { s.Misses++ })
			return false, nil
		}
		b = c.inj.Corrupt(SiteRead, b)
		payload, ok := decodeEntry(b)
		if !ok {
			c.quarantine(key)
			c.count(func(s *Stats) { s.Errors++; s.Misses++ })
			return false, nil
		}
		data = payload
	}
	if err := json.Unmarshal(data, out); err != nil {
		// The checksum matched but the JSON does not decode into out: a
		// schema mismatch rather than bit rot. Still a miss, still
		// quarantined so the entry cannot fail every future read.
		if !inMem {
			c.quarantine(key)
		}
		c.count(func(s *Stats) { s.Errors++; s.Misses++ })
		return false, nil
	}
	c.count(func(s *Stats) {
		s.Hits++
		if inMem {
			s.MemHits++
		}
	})
	if !inMem {
		c.mu.Lock()
		c.mem[key] = data
		c.mu.Unlock()
	}
	return true, nil
}

// Put stores v under key, replacing any prior entry. Disk writes are
// atomic (temp file + rename) so readers never observe partial JSON; a
// degraded cache keeps the in-memory layer and skips the disk.
func (c *Cache) Put(key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		c.count(func(s *Stats) { s.Errors++ })
		return fmt.Errorf("runcache: encoding entry: %w", err)
	}
	c.mu.Lock()
	c.mem[key] = data
	degraded := c.degraded
	c.mu.Unlock()
	if c.dir != "" {
		if degraded {
			c.count(func(s *Stats) { s.PutsBypassed++; s.Puts++ })
			return nil
		}
		if err := c.writeFile(key, encodeEntry(data)); err != nil {
			c.mu.Lock()
			c.stats.Errors++
			c.stats.WriteErrors++
			c.consecWerr++
			if c.consecWerr >= degradedAfter && !c.degraded {
				c.degraded = true
				c.stats.Degraded = true
			}
			c.mu.Unlock()
			return err
		}
		c.mu.Lock()
		c.consecWerr = 0
		c.mu.Unlock()
	}
	c.count(func(s *Stats) { s.Puts++ })
	return nil
}

// Degraded reports whether persistent write failures have flipped the
// cache into disk-bypass mode.
func (c *Cache) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}

func (c *Cache) writeFile(key string, data []byte) error {
	if err := c.inj.Err(SiteWrite); err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	p := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "."+key+".tmp*")
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	return nil
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// FlightStats returns a snapshot of Resolve's single-flight counters.
func (c *Cache) FlightStats() FlightStats { return c.flight.stats() }

// InFlight returns the keys Resolve is currently resolving, sorted.
func (c *Cache) InFlight() []string { return c.flight.keys() }

func (c *Cache) count(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}
