// Package journaltest writes tenant journals in the JSON codec, the format
// of data directories journaled before records were always written binary.
// Tests use it to check that such directories still recover and replicate;
// nothing outside tests imports it.
package journaltest

import (
	"mcsched/internal/journal"
	"mcsched/internal/mcsio"
)

// WriteJSON appends events to the tenant journal in dir as JSON records,
// stamping each with the event format version and the sequence number it
// lands at, and returns the records written. When snap is non-nil it then
// writes snap, stamped the same way, as a JSON snapshot covering every
// record, which truncates the segments. dir may already hold a journal:
// the records continue its sequence.
func WriteJSON(dir string, events []mcsio.EventJSON, snap *mcsio.SnapshotJSON) ([][]byte, error) {
	lg, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return nil, err
	}
	defer lg.Close()
	recs := make([][]byte, 0, len(events))
	for _, e := range events {
		e.Version, e.Seq = mcsio.EventFormatVersion, lg.NextSeq()
		b, err := mcsio.EncodeEvent(e)
		if err != nil {
			return nil, err
		}
		if _, err := lg.Append(b); err != nil {
			return nil, err
		}
		recs = append(recs, b)
	}
	if snap != nil {
		s := *snap
		s.Version, s.Seq = mcsio.SnapshotFormatVersion, lg.NextSeq()-1
		b, err := mcsio.EncodeSnapshot(s)
		if err != nil {
			return nil, err
		}
		if err := lg.WriteSnapshot(b, s.Seq); err != nil {
			return nil, err
		}
	}
	return recs, lg.Close()
}
