package geodabs_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"geodabs"
)

// TestClusterCloseHardening covers the close lifecycle the server drain
// path exercises: Close is idempotent, concurrent in-flight searches
// race it without panic or hang, and every post-close operation returns
// the ErrClosed sentinel instead of wedging.
func TestClusterCloseHardening(t *testing.T) {
	_, w := testWorld()
	var addrs []string
	for i := 0; i < 2; i++ {
		n, err := geodabs.StartShardNode("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		addrs = append(addrs, n.Addr())
	}
	cfg := geodabs.DefaultConfig()
	cl, err := geodabs.NewCluster(cfg, geodabs.ShardStrategy{PrefixBits: cfg.PrefixBits, Shards: 1000, Nodes: 2}, addrs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range w.Dataset.Trajectories {
		if err := cl.Add(tr); err != nil {
			t.Fatal(err)
		}
	}

	// Hammer searches from several goroutines while Close lands in the
	// middle. Racing calls may finish, fail with ErrClosed, or fail with
	// the transport error of a connection cut mid-RPC — anything but a
	// panic or a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := geodabs.NewQuery(w.Queries[g%len(w.Queries)].Points)
			for i := 0; i < 50; i++ {
				if _, err := cl.SearchQuery(ctx, q, geodabs.WithKNN(5)); err != nil {
					return // closed underneath us, expected
				}
			}
		}(g)
	}
	time.Sleep(10 * time.Millisecond)
	if err := cl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()

	// Idempotent: a second (and concurrent) Close is a nil no-op.
	var closeWG sync.WaitGroup
	for i := 0; i < 4; i++ {
		closeWG.Add(1)
		go func() {
			defer closeWG.Done()
			if err := cl.Close(); err != nil {
				t.Errorf("repeat Close: %v", err)
			}
		}()
	}
	closeWG.Wait()

	// Every post-close operation fails fast with the public sentinel.
	q := geodabs.NewQuery(w.Queries[0].Points)
	if _, err := cl.SearchQuery(ctx, q); !errors.Is(err, geodabs.ErrClosed) {
		t.Errorf("post-close SearchQuery: got %v, want ErrClosed", err)
	}
	if _, err := cl.Search(ctx, w.Queries[0]); !errors.Is(err, geodabs.ErrClosed) {
		t.Errorf("post-close Search: got %v, want ErrClosed", err)
	}
	if err := cl.Add(w.Dataset.Trajectories[0]); !errors.Is(err, geodabs.ErrClosed) {
		t.Errorf("post-close Add: got %v, want ErrClosed", err)
	}
	if err := cl.Upsert(ctx, w.Dataset.Trajectories[0]); !errors.Is(err, geodabs.ErrClosed) {
		t.Errorf("post-close Upsert: got %v, want ErrClosed", err)
	}
	if err := cl.Delete(ctx, w.Dataset.Trajectories[0].ID); !errors.Is(err, geodabs.ErrClosed) {
		t.Errorf("post-close Delete: got %v, want ErrClosed", err)
	}
	if _, err := cl.DeleteAll(ctx, []geodabs.ID{1, 2}, 2); !errors.Is(err, geodabs.ErrClosed) {
		t.Errorf("post-close DeleteAll: got %v, want ErrClosed", err)
	}
	if _, err := cl.StatsContext(ctx); !errors.Is(err, geodabs.ErrClosed) {
		t.Errorf("post-close Stats: got %v, want ErrClosed", err)
	}
}

// TestShardNodeCloseIdempotent: node shutdown is safe to repeat.
func TestShardNodeCloseIdempotent(t *testing.T) {
	n, err := geodabs.StartShardNode("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
