package saga

import (
	"bytes"
	"reflect"
	"testing"

	"e2eqos/internal/journal"
)

// TestRecordCodecGolden pins the saga records' binary layout: these
// bytes sit in journals on disk, so a change here is a format change.
func TestRecordCodecGolden(t *testing.T) {
	step := Step{ID: 1, Kind: "cancel", Data: []byte{0xff, 0x00}, Done: true}
	cases := []struct {
		name string
		rec  journal.BinaryRecord
		out  journal.BinaryDecoder
		want []byte
	}{
		{"mark", markRec{ID: "s1"}, &markRec{},
			[]byte{0x0a, 0x02, 's', '1'}},
		{"comp", markRec{ID: "s1", StepID: 2}, &markRec{},
			[]byte{0x0a, 0x02, 's', '1', 0x10, 0x04}},
		{"step", stepRec{ID: "s1", Step: step}, &stepRec{},
			[]byte{0x0a, 0x02, 's', '1', 0x12, 0x10,
				0x08, 0x02, 0x12, 0x06, 'c', 'a', 'n', 'c', 'e', 'l', 0x1a, 0x02, 0xff, 0x00, 0x20, 0x01}},
	}
	for _, c := range cases {
		got := c.rec.AppendBinary(nil)
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s: encoded % x, want % x", c.name, got, c.want)
		}
		if err := c.out.DecodeBinary(got); err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if back := reflect.ValueOf(c.out).Elem().Interface(); !reflect.DeepEqual(back, c.rec) {
			t.Errorf("%s: round trip %+v, want %+v", c.name, back, c.rec)
		}
	}
}

// TestSnapshotCodecGolden pins the coordinator snapshot layout and its
// round trip through Restore.
func TestSnapshotCodecGolden(t *testing.T) {
	want := []byte{0x0a, 0x0f, 0x0a, 0x01, 'a', 0x10, 0x01,
		0x1a, 0x08, 0x08, 0x02, 0x12, 0x01, 'u', 0x1a, 0x01, 'x'}
	snaps := []Snap{{ID: "a", Aborting: true, Steps: []Step{{ID: 1, Kind: "u", Data: []byte("x")}}}}
	if got := appendSnaps(nil, snaps); !bytes.Equal(got, want) {
		t.Fatalf("encoded % x, want % x", got, want)
	}
	back, err := decodeSnaps(want)
	if err != nil || !reflect.DeepEqual(back, snaps) {
		t.Fatalf("decoded %+v, %v; want %+v", back, err, snaps)
	}
	c := New(Options{})
	defer c.Close()
	if err := c.Restore(want); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot(); !bytes.Equal(got, want) {
		t.Fatalf("Restore+Snapshot = % x, want % x", got, want)
	}
	// Truncated input fails rather than restoring a partial set.
	if err := c.Restore(want[:len(want)-1]); err == nil {
		t.Fatal("truncated snapshot restored")
	}
}
