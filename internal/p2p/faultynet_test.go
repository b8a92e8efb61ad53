package p2p

import (
	"errors"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// TestFaultyNetworkZeroFaultTransparent pins the byte-transparency
// contract: with a zero FaultConfig the wrapper must forward every
// envelope in order, propagate the inner transport's errors verbatim,
// and record no faults.
func TestFaultyNetworkZeroFaultTransparent(t *testing.T) {
	t.Parallel()
	plain := NewInMemoryNetwork()
	wrapped := NewFaultyNetwork(NewInMemoryNetwork(), FaultConfig{})

	run := func(n Network) ([]Envelope, []error) {
		inbox := make(chan Envelope, 64)
		if err := n.Register("sink", inbox); err != nil {
			t.Fatal(err)
		}
		var errs []error
		for i := 0; i < 20; i++ {
			errs = append(errs, n.Send(Envelope{From: "src", To: "sink", Msg: Message{Kind: KindCoord, ID: strconv.Itoa(i)}}))
		}
		errs = append(errs, n.Send(Envelope{From: "src", To: "nobody"}))
		var got []Envelope
		for len(inbox) > 0 {
			got = append(got, <-inbox)
		}
		return got, errs
	}

	wantEnv, wantErr := run(plain)
	gotEnv, gotErr := run(wrapped)
	if !reflect.DeepEqual(gotEnv, wantEnv) {
		t.Fatalf("zero-fault wrapper altered delivery:\n got %v\nwant %v", gotEnv, wantEnv)
	}
	if len(gotErr) != len(wantErr) {
		t.Fatalf("error counts diverged: %d vs %d", len(gotErr), len(wantErr))
	}
	for i := range gotErr {
		if (gotErr[i] == nil) != (wantErr[i] == nil) {
			t.Fatalf("send %d: error %v vs %v", i, gotErr[i], wantErr[i])
		}
		if gotErr[i] != nil && !errors.Is(gotErr[i], ErrUnknownPeer) {
			t.Fatalf("send %d: wrapper rewrote the inner error: %v", i, gotErr[i])
		}
	}
	st := wrapped.Stats()
	if st.Dropped != 0 || st.Duplicated != 0 || st.Delayed != 0 || st.Reordered != 0 || st.PartitionDropped != 0 {
		t.Fatalf("zero-fault config recorded faults: %+v", st)
	}
	if st.Delivered != 20 {
		t.Fatalf("delivered %d, want 20", st.Delivered)
	}
}

// TestFaultyNetworkDeterministicSchedule pins that the same seed and the
// same send sequence produce the same fault schedule.
func TestFaultyNetworkDeterministicSchedule(t *testing.T) {
	t.Parallel()
	schedule := func() FaultStats {
		fn := NewFaultyNetwork(NewInMemoryNetwork(), FaultConfig{Seed: 42, Drop: 0.3, Dup: 0.2})
		inbox := make(chan Envelope, 256)
		if err := fn.Register("sink", inbox); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if err := fn.Send(Envelope{From: "src", To: "sink", Msg: Message{Kind: KindCoord, ID: strconv.Itoa(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		return fn.Stats()
	}
	a, b := schedule(), schedule()
	if a != b {
		t.Fatalf("schedules diverged: %+v vs %+v", a, b)
	}
	if a.Dropped == 0 || a.Duplicated == 0 {
		t.Fatalf("faults never fired: %+v", a)
	}
	if a.Delivered+a.Dropped != 200 {
		t.Fatalf("delivered %d + dropped %d != 200 sends", a.Delivered, a.Dropped)
	}
}

func TestFaultyNetworkDrop(t *testing.T) {
	t.Parallel()
	fn := NewFaultyNetwork(NewInMemoryNetwork(), FaultConfig{Seed: 7, Drop: 1})
	inbox := make(chan Envelope, 8)
	if err := fn.Register("sink", inbox); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := fn.Send(Envelope{From: "src", To: "sink"}); err != nil {
			t.Fatalf("drops must look like successful sends, got %v", err)
		}
	}
	if len(inbox) != 0 {
		t.Fatalf("%d envelopes leaked through Drop=1", len(inbox))
	}
	if st := fn.Stats(); st.Dropped != 10 || st.Delivered != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFaultyNetworkDuplicate(t *testing.T) {
	t.Parallel()
	fn := NewFaultyNetwork(NewInMemoryNetwork(), FaultConfig{Seed: 7, Dup: 1})
	inbox := make(chan Envelope, 16)
	if err := fn.Register("sink", inbox); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := fn.Send(Envelope{From: "src", To: "sink", Msg: Message{Kind: KindCoord, ID: strconv.Itoa(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if len(inbox) != 10 {
		t.Fatalf("got %d envelopes, want 10 (each doubled)", len(inbox))
	}
	if st := fn.Stats(); st.Duplicated != 5 || st.Delivered != 5 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFaultyNetworkDelay(t *testing.T) {
	t.Parallel()
	fn := NewFaultyNetwork(NewInMemoryNetwork(), FaultConfig{
		Seed: 7, DelayProb: 1, MaxDelay: 10 * time.Millisecond,
	})
	inbox := make(chan Envelope, 8)
	if err := fn.Register("sink", inbox); err != nil {
		t.Fatal(err)
	}
	if err := fn.Send(Envelope{From: "src", To: "sink", Msg: Message{Kind: KindCoord}}); err != nil {
		t.Fatal(err)
	}
	// The envelope is in flight, not delivered inline.
	if st := fn.Stats(); st.Delayed != 1 {
		t.Fatalf("stats %+v", st)
	}
	fn.Flush()
	select {
	case env := <-inbox:
		if env.Msg.Kind != KindCoord {
			t.Fatalf("got %v", env.Msg.Kind)
		}
	default:
		t.Fatal("delayed envelope never delivered after Flush")
	}
}

func TestFaultyNetworkReorder(t *testing.T) {
	t.Parallel()
	fn := NewFaultyNetwork(NewInMemoryNetwork(), FaultConfig{Seed: 7, Reorder: 1})
	inbox := make(chan Envelope, 8)
	if err := fn.Register("sink", inbox); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := fn.Send(Envelope{From: "src", To: "sink", Msg: Message{Kind: KindCoord, ID: strconv.Itoa(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	fn.Flush()
	if len(inbox) != 2 {
		t.Fatalf("got %d envelopes, want 2", len(inbox))
	}
	first, second := <-inbox, <-inbox
	if first.Msg.ID != "1" || second.Msg.ID != "0" {
		t.Fatalf("not reordered: got IDs %q then %q, want 1 then 0", first.Msg.ID, second.Msg.ID)
	}
	if st := fn.Stats(); st.Reordered == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFaultyNetworkPartition(t *testing.T) {
	t.Parallel()
	fn := NewFaultyNetwork(NewInMemoryNetwork(), FaultConfig{})
	ina := make(chan Envelope, 8)
	inb := make(chan Envelope, 8)
	if err := fn.Register("a", ina); err != nil {
		t.Fatal(err)
	}
	if err := fn.Register("b", inb); err != nil {
		t.Fatal(err)
	}

	fn.Partition("island", "b")
	if err := fn.Send(Envelope{From: "a", To: "b"}); err != nil {
		t.Fatalf("partition drops must look like successful sends, got %v", err)
	}
	if err := fn.Send(Envelope{From: "b", To: "a"}); err != nil {
		t.Fatal(err)
	}
	if len(ina) != 0 || len(inb) != 0 {
		t.Fatalf("traffic crossed the partition: a=%d b=%d", len(ina), len(inb))
	}
	if st := fn.Stats(); st.PartitionDropped != 2 {
		t.Fatalf("stats %+v", st)
	}
	// Within one group traffic flows.
	fn.Partition("island", "a")
	if err := fn.Send(Envelope{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	if len(inb) != 1 {
		t.Fatal("same-group traffic blocked")
	}

	fn.Heal()
	if err := fn.Send(Envelope{From: "b", To: "a"}); err != nil {
		t.Fatal(err)
	}
	if len(ina) != 1 {
		t.Fatal("healed partition still blocking")
	}
}
