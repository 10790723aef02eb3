package signalling

import (
	"encoding/json"
	"fmt"
	"testing"
)

// benchBatchMessage builds the frame shape that dominates the sub-flow
// hot path: a tunnel batch of n alloc ops.
func benchBatchMessage(n int) *Message {
	ops := make([]TunnelOp, n)
	for i := range ops {
		ops[i] = TunnelOp{Action: OpAlloc, SubFlowID: fmt.Sprintf("sf-%04d", i), Bandwidth: 1_000_000}
	}
	return &Message{Type: MsgTunnelBatch, ID: 42, TunnelBatch: &TunnelBatchPayload{
		TunnelRARID: "RAR-tunnel-1",
		BatchID:     "B-00000000000000000000001",
		User:        "/O=Grid/CN=alice",
		Ops:         ops,
	}}
}

// BenchmarkCodec compares the binary codec against encoding/json on
// the batch-64 frame — the `make bench-codec` numbers. The JSON arms
// marshal the same Message reflectively, as the retired JSON wire mode
// did, so BENCH_codec.json's margins stay comparable. Run with
// -benchmem: the binary encode arm is the one the allocation gate
// (TestEncodeAllocationFree) holds at zero.
func BenchmarkCodec(b *testing.B) {
	msg := benchBatchMessage(64)
	binFrame := msg.AppendBinary(nil)
	jsonFrame, err := json.Marshal(msg)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("frame bytes: binary=%d json=%d", len(binFrame), len(jsonFrame))

	b.Run("encode-binary", func(b *testing.B) {
		buf := make([]byte, 0, 2*len(binFrame))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = msg.AppendBinary(buf[:0])
		}
	})
	b.Run("encode-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeMessage(binFrame); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var m Message
			if err := json.Unmarshal(jsonFrame, &m); err != nil {
				b.Fatal(err)
			}
		}
	})
}
