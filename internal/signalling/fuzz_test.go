package signalling

import (
	"testing"
)

// FuzzDecodeMessage ensures arbitrary wire bytes never panic the
// decoder and that accepted messages re-encode to decodable frames.
// Batch payloads that decode must additionally never panic Validate,
// and batches that validate must be structurally sound (no duplicate
// sub-flow IDs, no non-positive alloc bandwidth).
func FuzzDecodeMessage(f *testing.F) {
	batch := func(id uint64, batchID string, ops ...TunnelOp) *Message {
		return &Message{Type: MsgTunnelBatch, ID: id, TunnelBatch: &TunnelBatchPayload{
			TunnelRARID: "r", BatchID: batchID, User: "/O=Grid/CN=alice", Ops: ops,
		}}
	}
	msgs := []*Message{
		{Type: MsgReserve, ID: 1, Reserve: &ReservePayload{Mode: ModeEndToEnd}},
		{Type: MsgCancel, ID: 2, Cancel: &CancelPayload{RARID: "RAR-1"}},
		{Type: MsgResult, ID: 3, Result: &ResultPayload{Granted: true, Handle: "h"}},
		{Type: MsgTunnelAlloc, TunnelAlloc: &TunnelAllocPayload{TunnelRARID: "r", SubFlowID: "s", Bandwidth: 1}},
		batch(4, "B-1", TunnelOp{Action: OpAlloc, SubFlowID: "s1", Bandwidth: 1000000}, TunnelOp{Action: OpRelease, SubFlowID: "s2"}),
		batch(0, "B-2", TunnelOp{Action: OpAlloc, SubFlowID: "dup", Bandwidth: 1}, TunnelOp{Action: OpRelease, SubFlowID: "dup"}),
		batch(0, "B-3", TunnelOp{Action: OpAlloc, SubFlowID: "s"}),
		batch(0, "B-4", TunnelOp{Action: OpAlloc, SubFlowID: "s", Bandwidth: -5}),
		batch(0, ""),
		batch(0, "B-5", TunnelOp{Action: "flood", SubFlowID: "s"}),
		{Type: MsgResult, ID: 6, Result: &ResultPayload{BatchResults: []TunnelOpResult{
			{SubFlowID: "s1", Granted: true}, {SubFlowID: "s2", Reason: "no capacity"}}}},
		{Type: MsgJournalStream, ID: 7, JournalStream: &JournalStreamPayload{
			Domain: "DomainA", Term: 3, LeaderID: 1, FromSeq: 7, CommitSeq: 6, Records: [][]byte{{0xb1, 0x01}, {0xb1, 0x02}}}},
		{Type: MsgJournalStream, ID: 8, JournalStream: &JournalStreamPayload{
			Kind: StreamVote, Domain: "DomainA", Term: 4, LeaderID: 2, FromSeq: 9}},
		{Type: MsgResult, ID: 9, Result: &ResultPayload{Granted: true, AckSeq: 42, Term: 3}},
	}
	seeds := [][]byte{
		// Frames as the retired JSON wire mode sent them: rejected.
		[]byte(`{"type":"cancel","id":2,"cancel":{"rar_id":"RAR-1"}}`),
		[]byte(`{}`),
		// A binary header followed by a JSON body.
		append([]byte{BinMagic, BinVersion, 2, 1}, `{"rar_id":"RAR-1"}`...),
		[]byte("\x00\x01\x02"),
		[]byte(``),
	}
	for _, m := range msgs {
		seeds = append(seeds, m.AppendBinary(nil))
	}
	// A batch torn inside its op array.
	torn := batch(0, "B-7", TunnelOp{Action: OpAlloc, SubFlowID: "all", Bandwidth: 1}).AppendBinary(nil)
	seeds = append(seeds, torn[:len(torn)-4])
	// Binary-frame seeds: each golden frame, plus the malformed shapes
	// the binary decoder must classify without panicking — torn varints,
	// truncated frames, wrong wire types on known tags, and frames from
	// the future.
	for _, g := range goldenMessages() {
		frame := g.msg.AppendBinary(nil)
		seeds = append(seeds,
			frame,
			frame[:len(frame)-1], // truncated tail
			frame[:3],            // header only, ID missing
			append(frame[:len(frame):len(frame)], 0x80), // torn trailing varint
		)
	}
	seeds = append(seeds,
		[]byte{BinMagic},                                  // magic alone
		[]byte{BinMagic, BinVersion},                      // no type code
		[]byte{BinMagic, 99, 2, 0},                        // future version
		[]byte{BinMagic, BinVersion, 0, 0},                // type code 0
		[]byte{BinMagic, BinVersion, 200, 0},              // unknown type code
		[]byte{BinMagic, BinVersion, 2, 0x80, 0x80, 0x80}, // torn ID varint
		[]byte{BinMagic, BinVersion, 2, 1, 0x0a, 0xff},    // bytes length past end
		[]byte{BinMagic, BinVersion, 2, 1, 0x08, 0x01},    // tag collision: field 1 as varint
		[]byte{BinMagic, BinVersion, 6, 1, 0x0d, 0x00},    // unsupported wire type 5
	)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeMessage(data)
		if err != nil {
			return
		}
		if msg.Type == "" {
			t.Fatal("decoder accepted a typeless message")
		}
		if _, err := DecodeMessage(msg.AppendBinary(nil)); err != nil {
			t.Fatalf("accepted message re-encodes to an undecodable frame: %v", err)
		}
		if b := msg.TunnelBatch; b != nil {
			if err := b.Validate(); err == nil {
				seen := make(map[string]struct{}, len(b.Ops))
				for _, op := range b.Ops {
					if _, dup := seen[op.SubFlowID]; dup {
						t.Fatalf("validated batch has duplicate sub-flow %q", op.SubFlowID)
					}
					seen[op.SubFlowID] = struct{}{}
					if op.Action == OpAlloc && op.Bandwidth <= 0 {
						t.Fatalf("validated batch allocs %d b/s", op.Bandwidth)
					}
				}
			}
		}
	})
}
