package fsnet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
)

const benchFiles = 512

// benchPair stands up a loopback server plus one client.
func benchPair(b *testing.B) *Client {
	b.Helper()
	return benchPairRouted(b, nil)
}

// benchPairRouted is benchPair with the server consulting router first.
func benchPairRouted(b *testing.B, router OpenRouter) *Client {
	b.Helper()
	store := NewStore()
	for i := 0; i < benchFiles; i++ {
		path := fmt.Sprintf("/bench/f%04d", i)
		if err := store.Put(path, make([]byte, 512)); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := NewServer(store, ServerConfig{GroupSize: 5, CacheCapacity: 256, Router: router})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	b.Cleanup(func() { _ = srv.Close() })

	client, err := Dial(l.Addr().String(), ClientConfig{CacheCapacity: 128})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = client.Close() })
	return client
}

func reportHitRate(b *testing.B, client *Client) {
	b.Helper()
	s := client.Stats()
	if s.Opens > 0 {
		b.ReportMetric(100*float64(s.Hits)/float64(s.Opens), "local_hit_%")
	}
}

// benchPaths precomputes the working-set paths so the timed loops measure
// the protocol stack, not fmt.Sprintf.
var benchPaths = func() [benchFiles]string {
	var paths [benchFiles]string
	for i := range paths {
		paths[i] = fmt.Sprintf("/bench/f%04d", i)
	}
	return paths
}()

// BenchmarkOpenLoopback measures end-to-end opens per second through the
// full protocol stack on a loopback socket, cycling through a working set
// larger than the client cache so misses and group replies are exercised.
func BenchmarkOpenLoopback(b *testing.B) {
	client := benchPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Open(benchPaths[i%benchFiles]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportHitRate(b, client)
}

// BenchmarkOpenRoutedLocal is BenchmarkOpenLoopback on a clustered node
// that owns every path: each open is routed, declined, and served on the
// connection's read loop. It should cost what the unrouted open costs.
func BenchmarkOpenRoutedLocal(b *testing.B) {
	client := benchPairRouted(b, newPeerRouter())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Open(benchPaths[i%benchFiles]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportHitRate(b, client)
}

// BenchmarkOpenPipelined shares one client — one connection — across 8
// goroutines, exercising the multiplexed transport and the server's
// concurrent serving path end to end.
func BenchmarkOpenPipelined(b *testing.B) {
	client := benchPair(b)
	const workers = 8
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	var failed atomic.Value
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				if _, err := client.Open(benchPaths[(int(i)*7+w)%benchFiles]); err != nil {
					failed.Store(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	if err, ok := failed.Load().(error); ok {
		b.Fatal(err)
	}
	reportHitRate(b, client)
}
