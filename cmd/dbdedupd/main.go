// Command dbdedupd runs a dbDedup database node: a deduplicating document
// store serving a client API over TCP, optionally replicating to or from
// other nodes.
//
// A primary with a secondary, on one machine:
//
//	dbdedupd -listen :7070 -repl-listen :7071 -dir /var/lib/dbdedup/primary
//	dbdedupd -listen :7080 -follow 127.0.0.1:7071 -dir /var/lib/dbdedup/secondary
//
// A 3-primary sharded cluster, each member owning the databases the ring
// places on it (see DESIGN.md "Sharded cluster"):
//
//	dbdedupd -listen :7070 -cluster-self host1:7070 -cluster-peers host1:7070,host2:7070,host3:7070
//	dbdedupd -listen :7070 -cluster-self host2:7070 -cluster-peers host1:7070,host2:7070,host3:7070
//	dbdedupd -listen :7070 -cluster-self host3:7070 -cluster-peers host1:7070,host2:7070,host3:7070
//
// A member started with -cluster-self alone serves the one-member ring of
// itself. A member whose -cluster-peers list leaves out -cluster-self joins
// that cluster: it owns nothing and redirects to the peers until
//
//	dedupcli -addrs host1:7070 rebalance host1:7070,host2:7070,host3:7070,host4:7070
//
// commits it into the ring.
//
// Use dedupcli to talk to the API port (-addrs for cluster routing).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dbdedup/internal/admission"
	"dbdedup/internal/apiserver"
	"dbdedup/internal/chain"
	"dbdedup/internal/chunker"
	"dbdedup/internal/cluster"
	"dbdedup/internal/core"
	"dbdedup/internal/featidx/tiered"
	"dbdedup/internal/httpadmin"
	"dbdedup/internal/metrics"
	"dbdedup/internal/node"
	"dbdedup/internal/repl"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:7070", "client API listen address")
		replListen = flag.String("repl-listen", "", "replication listen address (primary role)")
		follow     = flag.String("follow", "", "primary replication address to follow (secondary role)")
		dir        = flag.String("dir", "", "storage directory (empty = in-memory)")
		noDedup    = flag.Bool("no-dedup", false, "disable deduplication")
		compress   = flag.Bool("compress", false, "enable block-level compression")
		chunkSize  = flag.Int("chunk", 64, "sketching chunk size in bytes (power of two)")
		chunkAlg   = flag.String("chunker", "", "content-defined chunking algorithm: rabin | gear (default: DBDEDUP_CHUNKER or rabin; must match across a replica set)")
		scheme     = flag.String("scheme", "hop", "chain encoding scheme: hop | backward | version-jump")
		hop        = flag.Int("hop", 16, "hop distance / cluster size")
		statsEvery = flag.Duration("stats-every", 0, "periodically log store stats (0 = off)")
		compaction = flag.Bool("auto-compact", true, "enable background segment compaction")
		rededup    = flag.Bool("compact-rededup", false, "re-deduplicate live raw records during compaction")
		rdMaxChain = flag.Int("rededup-max-chain", 8, "max delta-chain depth a compaction conversion may create")
		rdBudget   = flag.Duration("rededup-budget", 0, "wall-clock budget per compaction pass for re-sketching (0 = unlimited)")
		admin      = flag.String("admin", "", "HTTP admin endpoint address (e.g. :7090; empty = off)")
		admEnable  = flag.Bool("admission", false, "enable admission control: reject over-fair-share inserts during overload")
		shedRaw    = flag.Bool("shed-raw", false, "degrade inserts to raw (no dedup encode) during overload; pair with -compact-rededup to recover the ratio")
		admRate    = flag.Float64("admission-tenant-rate", 0, "per-tenant fair-share inserts/second enforced during overload (0 = shedding only)")
		admDwell   = flag.Duration("overload-dwell", 250*time.Millisecond, "minimum time the overload latch stays engaged once entered")
		idxBudget  = flag.String("index-memory-budget", "", "similarity-index memory budget, e.g. 24MiB (empty: DBDEDUP_INDEX_BUDGET or unbounded; enables the tiered hot/cold index)")

		clusterSelf  = flag.String("cluster-self", "", "this member's advertised client address in the ring (enables cluster mode)")
		clusterPeers = flag.String("cluster-peers", "", "comma-separated initial cluster membership (empty: the one-member ring of self; without self: join those members via `dedupcli rebalance`)")
		clusterFwd   = flag.Bool("cluster-forward", false, "proxy wrong-shard requests to their owner server-side instead of redirecting the client")
	)
	flag.Parse()

	var idxBudgetBytes int64
	if *idxBudget != "" {
		b, err := tiered.ParseSize(*idxBudget)
		if err != nil {
			log.Fatalf("-index-memory-budget: %v", err)
		}
		idxBudgetBytes = b
	}

	alg, err := chunker.ParseAlgorithm(*chunkAlg)
	if err != nil {
		log.Fatalf("-chunker: %v", err)
	}

	var sch chain.Scheme
	switch *scheme {
	case "hop":
		sch = chain.Hop
	case "backward":
		sch = chain.Backward
	case "version-jump":
		sch = chain.VersionJump
	default:
		log.Fatalf("unknown -scheme %q", *scheme)
	}

	n, err := node.Open(node.Options{
		Dir:          *dir,
		DisableDedup: *noDedup,
		Engine: core.Config{
			Chunker:          alg,
			ChunkAvgSize:     *chunkSize,
			Scheme:           sch,
			HopDistance:      *hop,
			IndexBudgetBytes: idxBudgetBytes,
		},
		BlockCompression: *compress,
		Compaction: node.CompactionOptions{
			Enabled:              *compaction,
			Rededup:              *rededup,
			RededupMaxChainDepth: *rdMaxChain,
			RededupBudget:        *rdBudget,
		},
		Admission: admission.Options{
			Enabled:       *admEnable,
			ShedRaw:       *shedRaw,
			TenantRate:    *admRate,
			OverloadDwell: *admDwell,
		},
	})
	if err != nil {
		log.Fatalf("opening node: %v", err)
	}
	defer n.Close()

	// In cluster mode the node is served behind a shard wrapper: the ring
	// routes each database to one member, everything else is answered with
	// the routing taxonomy (wrong-shard redirect / moving retry-later) or,
	// with -cluster-forward, proxied to the owner.
	var sh *cluster.Shard
	var apiOpts apiserver.Options
	if *clusterSelf != "" {
		cm := &metrics.ClusterMetrics{}
		// A peer list without self is a joiner outside that ring (see the
		// package comment and DESIGN.md §13).
		peers := []string{*clusterSelf}
		if *clusterPeers != "" {
			peers = splitAddrs(*clusterPeers)
		}
		initial := cluster.NewRing(1, peers)
		sh = cluster.NewShard(n, *clusterSelf, initial, nil, cm)
		apiOpts.ForwardWrongShard = *clusterFwd
		apiOpts.OnForward = func(ok bool) {
			if ok {
				cm.ForwardedOps.Add(1)
			} else {
				cm.ForwardFailures.Add(1)
			}
		}
	} else if *clusterPeers != "" || *clusterFwd {
		log.Fatal("-cluster-peers/-cluster-forward require -cluster-self")
	}

	var api *apiserver.Server
	if sh != nil {
		api, err = apiserver.ListenAndServeBackend(sh, *listen, apiOpts)
	} else {
		api, err = apiserver.ListenAndServe(n, *listen)
	}
	if err != nil {
		log.Fatalf("API listener: %v", err)
	}
	defer api.Close()
	log.Printf("client API on %s", api.Addr())
	if sh != nil {
		r := sh.Ring()
		log.Printf("cluster member %s, ring epoch %d (%d members)", sh.Self(), r.Epoch, len(r.Members))
	}

	if *admin != "" {
		adm, err := httpadmin.ListenAndServeCluster(n, *admin, sh)
		if err != nil {
			log.Fatalf("admin listener: %v", err)
		}
		defer adm.Close()
		log.Printf("HTTP admin on %s", adm.Addr())
	}

	if *replListen != "" {
		p, err := repl.ListenAndServe(n, *replListen)
		if err != nil {
			log.Fatalf("replication listener: %v", err)
		}
		defer p.Close()
		log.Printf("replication (primary) on %s", p.Addr())
	}
	if *follow != "" {
		// Reconnect across transient outages; the stream resumes from the
		// applied low-water mark, so a primary restart or network blip does
		// not require restarting the secondary.
		sec, err := repl.ConnectWithOptions(n, *follow, 0, 0, repl.Options{
			MaxReconnects: 1 << 20,
		})
		if err != nil {
			log.Fatalf("following %s: %v", *follow, err)
		}
		defer sec.Close()
		log.Printf("following primary at %s", *follow)
		go func() {
			for {
				time.Sleep(time.Second)
				if err := sec.Err(); err != nil {
					log.Printf("replication stream failed: %v", err)
					return
				}
			}
		}()
	}

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				st := n.Stats()
				log.Printf("raw=%s stored=%s oplog=%s dedup-hits=%d",
					metrics.FormatBytes(st.RawInsertBytes),
					metrics.FormatBytes(st.Store.LogicalBytes),
					metrics.FormatBytes(st.OplogBytes),
					st.Engine.Deduped)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "shutting down")
}

// splitAddrs parses a comma-separated address list, dropping blanks.
func splitAddrs(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
