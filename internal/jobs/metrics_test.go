package jobs

import (
	"context"
	"testing"
	"time"
)

func TestTotalsAndMetrics(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// One worker: park it on a blocking job so the next submissions queue.
	release := make(chan struct{})
	blockSnap, err := s.Submit(Request{Key: "block", Run: func(ctx context.Context, _ func(Progress)) error {
		<-release
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning := func() {
		for i := 0; i < 1000; i++ {
			if m := s.Metrics(); m.Running == 1 {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatal("job never started running")
	}
	waitRunning()

	noop := func(ctx context.Context, _ func(Progress)) error { return nil }
	q1, _ := s.Submit(Request{Key: "q1", Priority: 5, Run: noop})
	s.Submit(Request{Key: "q2", Run: noop})
	s.RecordDone("hit", nil, Progress{})

	m := s.Metrics()
	if m.Running != 1 || m.QueueDepth["5"] != 1 || m.QueueDepth["0"] != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.OldestQueuedAge <= 0 || m.OldestRunningAge <= 0 {
		t.Fatalf("ages not positive: %+v", m)
	}

	if _, err := s.Cancel(q1.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Wait(ctx, blockSnap.ID)
	// Drain q2 too.
	for i := 0; i < 1000; i++ {
		if tot := s.Totals(); tot.Done == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	tot := s.Totals()
	if tot.Submitted != 3 || tot.RecordedDone != 1 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot.Done != 2 || tot.Cancelled != 1 || tot.Failed != 0 {
		t.Fatalf("terminal totals = %+v", tot)
	}
	// Started counts only jobs a worker picked up: q1 was cancelled while
	// queued and must not appear.
	if tot.Started != 2 {
		t.Fatalf("started = %d, want 2", tot.Started)
	}
	m = s.Metrics()
	if m.Running != 0 || len(m.QueueDepth) != 0 || m.OldestQueuedAge != 0 {
		t.Fatalf("drained metrics = %+v", m)
	}
}
