package bb

import (
	"bytes"
	"testing"

	"e2eqos/internal/saga"
)

// TestCompCodecGolden pins the compensation arguments' binary layout:
// they ride saga step records in the journal and in snapshots.
func TestCompCodecGolden(t *testing.T) {
	c := cancelComp{Peer: "/CN=b", Key: "k~s1"}
	want := []byte{0x0a, 0x05, '/', 'C', 'N', '=', 'b', 0x12, 0x04, 'k', '~', 's', '1'}
	if got := c.AppendBinary(nil); !bytes.Equal(got, want) {
		t.Fatalf("cancelComp encoded % x, want % x", got, want)
	}
	var c2 cancelComp
	if err := c2.DecodeBinary(want); err != nil || c2 != c {
		t.Fatalf("cancelComp decoded %+v, %v; want %+v", c2, err, c)
	}

	r := releaseComp{Handle: "h", Key: "k"}
	want = []byte{0x0a, 0x01, 'h', 0x12, 0x01, 'k'}
	if got := r.AppendBinary(nil); !bytes.Equal(got, want) {
		t.Fatalf("releaseComp encoded % x, want % x", got, want)
	}
	var r2 releaseComp
	if err := r2.DecodeBinary(want); err != nil || r2 != r {
		t.Fatalf("releaseComp decoded %+v, %v; want %+v", r2, err, r)
	}
}

// TestBrokerStateRestoresEveryLiveSaga: the rotated broker snapshot
// carries every live saga's debt, whatever bytes a step's argument
// holds, and a restored coordinator owes exactly the same.
func TestBrokerStateRestoresEveryLiveSaga(t *testing.T) {
	c := saga.New(saga.Options{})
	defer c.Close()
	steps := map[string][]byte{
		"split:R#1":  releaseComp{Handle: "h1", Key: "R"}.AppendBinary(nil),
		"cancel:Q#2": {0xff, '{', 0x00},
	}
	for id, data := range steps {
		if err := c.Begin(id); err != nil {
			t.Fatal(err)
		}
		if err := c.Did(id, "release", data); err != nil {
			t.Fatal(err)
		}
	}
	st := brokerState{Table: []byte{0xb2, 0x01}, Sagas: c.Snapshot(), Epoch: 2}
	back, err := decodeBrokerState(st.appendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	restored := saga.New(saga.Options{})
	defer restored.Close()
	if err := restored.Restore(back.Sagas); err != nil {
		t.Fatal(err)
	}
	if restored.Live() != 2 {
		t.Fatalf("restored %d live sagas, want 2", restored.Live())
	}
	if !bytes.Equal(restored.Snapshot(), st.Sagas) || !bytes.Equal(back.Table, st.Table) || back.Epoch != 2 {
		t.Fatalf("broker state changed across the snapshot round trip: %+v", back)
	}
}
