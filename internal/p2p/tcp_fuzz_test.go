package p2p

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
)

// FuzzTCPFrameReader feeds an arbitrary byte stream to the TCP transport's
// frame reader, the way a connection from anyone would. It must never
// panic; every envelope it delivers must have been carried, byte for byte,
// by the stream; what it allocates must follow the bytes it was fed, never
// a length the stream merely claims; and a stream that opens in the old
// newline-delimited JSON framing must be refused before anything is
// delivered. Every Data delivered is recycled into the reader's free list
// once checked, as a coordinator does, so later frames may be read into it.
// Seeds in testdata/fuzz/FuzzTCPFrameReader are real frames —
// a header-only ping, a coordinator claim, a result carrying a record frame
// — whole, cut short, and with single bits flipped in prefix, header and
// data.
func FuzzTCPFrameReader(f *testing.F) {
	ping, err := frameHead(Envelope{From: "a", To: "b", Msg: Message{Kind: KindCoord, ID: "1"}})
	if err != nil {
		f.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xa5, 0x00, 0xff}, 100)
	result, err := frameHead(Envelope{From: "w", To: "c", Msg: Message{Kind: KindCoord, ID: "result", Key: "fig7", Data: data}})
	if err != nil {
		f.Fatal(err)
	}
	result = append(result, data...)
	f.Add(ping)
	f.Add(append(append([]byte{}, result...), ping...))
	f.Add(result[:len(result)-7])
	f.Add([]byte(`{"from":"a","to":"b","msg":{"kind":"ping","id":"1"}}` + "\n"))
	f.Fuzz(func(t *testing.T, stream []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr := frameReader{br: bufio.NewReaderSize(bytes.NewReader(stream), 4096), free: &freeList{}}
		delivered, carried := 0, 0
		var err error
		for err == nil {
			var env Envelope
			if env, err = fr.next(); err == nil {
				delivered++
				carried += framePrefix + len(env.Msg.Data)
				if len(env.Msg.Data) > 0 && !bytes.Contains(stream, env.Msg.Data) {
					t.Fatal("delivered data the stream does not contain")
				}
				fr.free.put(env.Msg.Data)
			}
		}
		runtime.ReadMemStats(&after)

		if !errors.Is(err, errBadFrame) && err != io.EOF && err != io.ErrUnexpectedEOF {
			t.Fatalf("reader stopped with %v", err)
		}
		if carried > len(stream) {
			t.Fatalf("delivered %d envelopes needing %d bytes from a %d-byte stream", delivered, carried, len(stream))
		}
		if len(stream) >= framePrefix && stream[0] == '{' && (delivered > 0 || !errors.Is(err, errBadFrame)) {
			t.Fatalf("old newline-JSON framing not refused: %d delivered, err %v", delivered, err)
		}
		// Exact-size buffers up to readChunk, doubling beyond it (so at most
		// 4x what arrived), JSON decoding of the header, and the bufio buffer.
		// A lying prefix can reach 2 x readChunk (header and data once each);
		// nothing here scales with a claimed length.
		if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(8*len(stream)+2*readChunk+64<<10); got > budget {
			t.Fatalf("reader allocated %d B for a %d-byte stream (budget %d)", got, len(stream), budget)
		}
	})
}
