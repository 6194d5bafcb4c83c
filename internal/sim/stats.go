package sim

import "fmt"

// Stats counts disk activity. Every I/O call counts one seek (paper §4.1:
// "We count a disk seek every time the disk is accessed to fetch or write a
// segment on disk").
type Stats struct {
	ReadCalls    int64 // I/O calls that read pages
	WriteCalls   int64 // I/O calls that wrote pages
	PagesRead    int64 // total pages transferred by reads
	PagesWritten int64 // total pages transferred by writes
	// SeekDistance tallies disk head movement: the pages between the end of
	// one I/O call and the start of the next, across all areas laid out
	// consecutively. The paper's cost model charges every call the same
	// seek time; the distance tally preserves the locality the flat charge
	// hides.
	SeekDistance int64
	Time         Duration
}

// Calls returns the total number of I/O calls (= seeks).
func (s Stats) Calls() int64 { return s.ReadCalls + s.WriteCalls }

// Pages returns the total number of pages transferred.
func (s Stats) Pages() int64 { return s.PagesRead + s.PagesWritten }

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.ReadCalls += o.ReadCalls
	s.WriteCalls += o.WriteCalls
	s.PagesRead += o.PagesRead
	s.PagesWritten += o.PagesWritten
	s.SeekDistance += o.SeekDistance
	s.Time += o.Time
}

// Sub returns the difference s − o, useful for per-operation deltas.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		ReadCalls:    s.ReadCalls - o.ReadCalls,
		WriteCalls:   s.WriteCalls - o.WriteCalls,
		PagesRead:    s.PagesRead - o.PagesRead,
		PagesWritten: s.PagesWritten - o.PagesWritten,
		SeekDistance: s.SeekDistance - o.SeekDistance,
		Time:         s.Time - o.Time,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("ios=%d (r=%d w=%d) pages=%d (r=%d w=%d) time=%v",
		s.Calls(), s.ReadCalls, s.WriteCalls,
		s.Pages(), s.PagesRead, s.PagesWritten, s.Time)
}

// CSVHeader returns the column names matching CSV.
func CSVHeader() string {
	return "read_calls,write_calls,pages_read,pages_written,seek_distance_pages,time_us"
}

// CSV returns the stats as one comma-separated row (see CSVHeader), so
// result files can carry the locality tally alongside the paper's totals.
func (s Stats) CSV() string {
	return fmt.Sprintf("%d,%d,%d,%d,%d,%d",
		s.ReadCalls, s.WriteCalls, s.PagesRead, s.PagesWritten,
		s.SeekDistance, int64(s.Time))
}
