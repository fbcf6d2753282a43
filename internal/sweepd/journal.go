package sweepd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"invisifence"
)

// The campaign journal is an append-only per-campaign WAL under
// <cache-dir>/journal/<id>.wal: one JSON record per line, written
// through an O_APPEND file handle so records are durable against a
// process kill the moment the write returns. The journal holds only
// scheduling state — the accepted spec, cell start/retry/terminal
// records, and the campaign's terminal announcement; results themselves
// live in the content-addressed cache, which is written before a cell's
// terminal record. Replay therefore needs nothing but the journal and
// the cache: an unfinished campaign is re-admitted from its spec record
// and resubmitted whole, finished cells answer from the cache, and only
// the cells in flight at the kill are re-simulated. A finished
// campaign's journal gains a "done" record and is then removed, so the
// journal directory enumerates exactly the campaigns that owe recovery.

// Journal record types.
const (
	recSpec  = "spec"  // campaign admitted: ID + the accepted spec
	recStart = "start" // cell handed to a worker (Attempt counts from 0)
	recRetry = "retry" // cell attempt failed; a retry was scheduled
	recCell  = "cell"  // cell reached a terminal state
	recDone  = "done"  // campaign reached a terminal state
)

// journalRecord is one WAL line. Cell carries no omitempty: cell index
// 0 must round-trip.
type journalRecord struct {
	T    string                 `json:"t"`
	ID   string                 `json:"id,omitempty"`
	Spec *invisifence.SweepSpec `json:"spec,omitempty"`
	Cell int                    `json:"cell"`
	// Attempt numbers the cell execution attempt (0 = first).
	Attempt int    `json:"attempt,omitempty"`
	State   string `json:"state,omitempty"`
	Err     string `json:"err,omitempty"`
}

// journal appends records for one campaign. The nil journal (memory-only
// cache, no journal dir) swallows every call, so callers never branch.
type journal struct {
	mu   sync.Mutex
	f    io.WriteCloser // the O_APPEND WAL file
	path string
	err  error // first write error; later records are dropped, not retried
}

// journalPath is the campaign's WAL location under the journal dir.
func journalPath(dir, id string) string {
	return filepath.Join(dir, id+".wal")
}

// openJournal opens (creating or appending) the campaign's WAL.
func openJournal(dir, id string) (*journal, error) {
	if dir == "" {
		return nil, nil
	}
	p := journalPath(dir, id)
	f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweepd: opening journal: %w", err)
	}
	return &journal{f: f, path: p}, nil
}

// record appends one line. Best-effort: a sick disk costs recovery
// fidelity for this campaign, never the campaign itself.
func (j *journal) record(r journalRecord) {
	if j == nil {
		return
	}
	data, err := json.Marshal(r)
	if err != nil {
		return
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if _, err := j.f.Write(data); err != nil {
		j.err = err
	}
}

// retire closes and removes the WAL — called once the campaign is
// terminal and its "done" record is written, so a crash between the
// record and the unlink just means the next startup removes the file.
func (j *journal) retire() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.f.Close()
	os.Remove(j.path)
}

// close releases the file handle without removing the WAL (shutdown of
// an unfinished campaign: the journal stays, owed to the next startup).
func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.f.Close()
}

// journalState is the outcome of replaying one WAL.
type journalState struct {
	// id and spec come from the spec record; spec == nil means the WAL
	// holds no usable admission record and cannot be resumed.
	id   string
	spec *invisifence.SweepSpec
	// started maps cell index → latest attempt number with a start record.
	started map[int]int
	// done maps cell index → its journaled terminal state.
	done map[int]string
	// retries counts retry records per cell.
	retries map[int]int
	// terminal is the campaign's journaled terminal state ("" = unfinished).
	terminal string
}

// inFlight counts cells started but not terminal — the cells a recovery
// after a kill at this WAL's end would re-simulate.
func (st *journalState) inFlight() int {
	n := 0
	for c := range st.started {
		if _, ok := st.done[c]; !ok {
			n++
		}
	}
	return n
}

// replayJournal reduces WAL bytes to the campaign state they describe.
// It is a pure, total function: garbage lines, truncated tails (a crash
// mid-write leaves at most one partial last line), interleaved or
// duplicated records, and records for absurd cell indices are all
// tolerated — malformed input narrows recovery, it never panics. Replay
// is idempotent: the same bytes always reduce to the same state.
func replayJournal(data []byte) journalState {
	st := journalState{
		started: make(map[int]int),
		done:    make(map[int]string),
		retries: make(map[int]int),
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), maxSpecBytes+4096)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r journalRecord
		if err := json.Unmarshal(line, &r); err != nil {
			continue
		}
		switch r.T {
		case recSpec:
			// First valid spec record wins; a duplicate (replayed
			// admission) must not reset cell state.
			if st.spec == nil && r.Spec != nil && r.ID != "" {
				st.id, st.spec = r.ID, r.Spec
			}
		case recStart:
			if r.Cell >= 0 {
				if a, ok := st.started[r.Cell]; !ok || r.Attempt > a {
					st.started[r.Cell] = r.Attempt
				}
			}
		case recRetry:
			if r.Cell >= 0 {
				st.retries[r.Cell]++
			}
		case recCell:
			if r.Cell >= 0 && r.State != "" {
				st.done[r.Cell] = r.State
			}
		case recDone:
			st.terminal = r.State
		}
	}
	return st
}

// scanJournals lists the WAL files under dir, sorted by name (campaign
// admission order, since IDs are zero-padded sequence numbers).
func scanJournals(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".wal" {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}
