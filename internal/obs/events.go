package obs

import (
	"fmt"
	"sync"
	"time"
)

// The cluster event journal: a severity-tagged, bounded ring of the
// *rare* things a cluster does — suspect markings, replica promotions,
// WAL seals and retention drops, recovery summaries —
// that metrics only count and logs scroll away. Instrumented packages
// emit into the process-wide Events journal (mirroring metrics.Default),
// live peers surface it at /debug/events and in /status, and a durable
// sink (EventLog) can append every event to events.log under the data
// directory so postmortems survive the process.

// Severity classifies an event.
type Severity uint8

const (
	SevInfo Severity = iota
	SevWarn
	SevError
)

// String renders the severity the way the JSON encoding and the
// /debug/events surface print it.
func (s Severity) String() string {
	switch s {
	case SevWarn:
		return "warn"
	case SevError:
		return "error"
	}
	return "info"
}

// MarshalJSON encodes the severity as its string form.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts the string form (rangetop decodes /status).
func (s *Severity) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"info"`:
		*s = SevInfo
	case `"warn"`:
		*s = SevWarn
	case `"error"`:
		*s = SevError
	default:
		return fmt.Errorf("obs: unknown severity %s", b)
	}
	return nil
}

// Event is one journal entry.
type Event struct {
	// Seq orders events within this process's journal (1 = oldest known,
	// including events recovered from a durable log at boot).
	Seq uint64 `json:"seq"`
	// Time is when the event was emitted.
	Time time.Time `json:"time"`
	// Sev is the severity.
	Sev Severity `json:"sev"`
	// Sub names the emitting subsystem ("chord", "replica", "wal",
	// "ship", "peer").
	Sub string `json:"sub"`
	// Msg is the human-readable description.
	Msg string `json:"msg"`
}

// String renders one event line for text surfaces.
func (e Event) String() string {
	return fmt.Sprintf("%s %-5s [%s] %s", e.Time.Format("15:04:05.000"), e.Sev, e.Sub, e.Msg)
}

// DefaultJournalCap is the ring capacity of the process-wide journal.
const DefaultJournalCap = 256

// Journal is a bounded ring of events with optional sinks. All methods
// are safe for concurrent use; emission is a mutex and a slot write, so
// call sites don't need to be rare — just honest about severity.
type Journal struct {
	mu     sync.Mutex
	ring   []Event
	next   int
	filled bool
	seq    uint64
	warns  uint64
	errs   uint64
	sinks  map[int]func(Event)
	sinkID int
}

// Events is the process-wide journal every instrumented package emits
// into, the event-plane analogue of metrics.Default.
var Events = NewJournal(DefaultJournalCap)

// NewJournal builds a journal with the given ring capacity.
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Journal{ring: make([]Event, capacity)}
}

// Emitf records one event and forwards it to every sink.
func (j *Journal) Emitf(sev Severity, sub, format string, args ...any) {
	e := Event{Time: time.Now(), Sev: sev, Sub: sub, Msg: fmt.Sprintf(format, args...)}
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	switch sev {
	case SevWarn:
		j.warns++
	case SevError:
		j.errs++
	}
	j.push(e)
	sinks := make([]func(Event), 0, len(j.sinks))
	for _, fn := range j.sinks {
		sinks = append(sinks, fn)
	}
	j.mu.Unlock()
	for _, fn := range sinks {
		fn(e)
	}
}

// push stores e in the ring; callers hold the lock.
func (j *Journal) push(e Event) {
	j.ring[j.next] = e
	j.next++
	if j.next == len(j.ring) {
		j.next = 0
		j.filled = true
	}
}

// Preload seeds the journal with events recovered from a durable log at
// boot, assigning them fresh sequence numbers. Sinks are not invoked —
// a durable sink attached afterwards must not re-journal history.
func (j *Journal) Preload(events []Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, e := range events {
		j.seq++
		e.Seq = j.seq
		switch e.Sev {
		case SevWarn:
			j.warns++
		case SevError:
			j.errs++
		}
		j.push(e)
	}
}

// AddSink registers fn to receive every subsequent event (called
// outside the journal lock, in emission order per emitter). The
// returned function detaches it.
func (j *Journal) AddSink(fn func(Event)) (detach func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sinks == nil {
		j.sinks = make(map[int]func(Event))
	}
	id := j.sinkID
	j.sinkID++
	j.sinks[id] = fn
	return func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		delete(j.sinks, id)
	}
}

// Recent returns up to n events, newest first (all of them for n <= 0).
func (j *Journal) Recent(n int) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	size := j.next
	if j.filled {
		size = len(j.ring)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]Event, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, j.ring[(j.next-i+len(j.ring))%len(j.ring)])
	}
	return out
}

// Counts returns the journal's lifetime totals: events emitted (or
// preloaded), and how many were warnings and errors.
func (j *Journal) Counts() (total, warns, errs uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq, j.warns, j.errs
}
