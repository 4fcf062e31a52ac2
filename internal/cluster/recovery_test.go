package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dbdedup/internal/apiserver"
	"dbdedup/internal/netsim"
	"dbdedup/internal/node"
)

func dialDirect(t *testing.T, mesh *netsim.Mesh, addr string) *apiserver.Client {
	t.Helper()
	c, err := apiserver.DialNetwork(mesh.Host("client"), addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func testRebalanceOptions(mesh *netsim.Mesh) RebalanceOptions {
	return RebalanceOptions{Network: mesh.Host("coord"), RPCTimeout: 2 * time.Second}
}

// dbPlacedOn finds a database r1 places on own1 and r2 places on own2.
func dbPlacedOn(t *testing.T, r1 *Ring, own1 string, r2 *Ring, own2 string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		db := fmt.Sprintf("routedb%d", i)
		if r1.Owner(db) == own1 && r2.Owner(db) == own2 {
			return db
		}
	}
	t.Fatalf("no database moves from %s to %s", own1, own2)
	return ""
}

// TestJoinerOutsideRingMovesData pins the bootstrap-join flow: a member
// started without peers serves the one-member ring {a}@1 and takes routed
// writes; a joiner started outside that ring owns nothing and redirects to
// a until the rebalance commits it in. Every database the new ring places
// on the joiner is streamed there before the source's copy is dropped.
func TestJoinerOutsideRingMovesData(t *testing.T) {
	mesh := netsim.NewMesh(11, "a", "b")
	boot := NewRing(1, []string{"a:1"})
	ma := startMember(t, mesh, "a", "a:1", boot, apiserver.Options{})
	mb := startMember(t, mesh, "b", "b:1", boot, apiserver.Options{})

	target := NewRing(2, []string{"a:1", "b:1"})
	dbStay := dbOwnedBy(t, target, "a:1")
	dbMove := dbOwnedBy(t, target, "b:1")

	pre, err := DialCluster([]string{"a:1"}, testClientOptions(mesh, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer pre.Close()
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := pre.Insert(dbStay, key, []byte("stay-"+key)); err != nil {
			t.Fatal(err)
		}
		if err := pre.Insert(dbMove, key, []byte("move-"+key)); err != nil {
			t.Fatal(err)
		}
	}
	_, err = dialDirect(t, mesh, "b:1").Get(dbMove, "k0")
	var ws *apiserver.WrongShardError
	if !errors.As(err, &ws) || ws.Owner != "a:1" {
		t.Fatalf("joiner outside the ring: want a redirect to a:1, got %v", err)
	}

	ring, err := Rebalance([]string{"a:1"}, []string{"a:1", "b:1"}, testRebalanceOptions(mesh))
	if err != nil {
		t.Fatalf("join rebalance: %v", err)
	}
	if !ring.Equal(target) {
		t.Fatalf("committed ring = %v, want %v", ring, target)
	}

	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		got, err := mb.n.Read(dbMove, key)
		if err != nil || !bytes.Equal(got, []byte("move-"+key)) {
			t.Errorf("moved record %s/%s not on the new owner: %q, %v", dbMove, key, got, err)
		}
		if _, err := ma.n.Read(dbMove, key); !errors.Is(err, node.ErrNotFound) {
			t.Errorf("moved record %s/%s still on the source: err=%v", dbMove, key, err)
		}
		if _, err := ma.n.Read(dbStay, key); err != nil {
			t.Errorf("staying record %s/%s lost from the source: %v", dbStay, key, err)
		}
	}

	// The whole corpus stays reachable through the routing tier.
	cc, err := DialCluster([]string{"a:1"}, testClientOptions(mesh, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	for _, db := range []string{dbStay, dbMove} {
		for i := 0; i < 5; i++ {
			key := fmt.Sprintf("k%d", i)
			if _, err := cc.Get(db, key); err != nil {
				t.Errorf("routed read %s/%s after join: %v", db, key, err)
			}
		}
	}
}

// TestSourceWindowFreezesAndAbortKeepsData pins the source half of the join
// safety story: once a window opens on the one-member ring {a}@1, writes to
// its moving databases freeze (they would otherwise miss the outbound
// snapshot), reads keep serving the frozen local copy, and an abort keeps
// everything the member held before the window.
func TestSourceWindowFreezesAndAbortKeepsData(t *testing.T) {
	mesh := netsim.NewMesh(12, "a")
	ma := startMember(t, mesh, "a", "a:1", NewRing(1, []string{"a:1"}), apiserver.Options{})

	pend := NewRing(2, []string{"a:1", "ghost:1"})
	db := dbOwnedBy(t, pend, "ghost:1")
	da := dialDirect(t, mesh, "a:1")
	if err := da.Insert(db, "k", []byte("pre-window")); err != nil {
		t.Fatal(err)
	}
	if err := ma.sh.InstallRing(pend.Marshal()); err != nil {
		t.Fatal(err)
	}

	err := da.Update(db, "k", []byte("into the window"))
	var mv *apiserver.ShardMovingError
	if !errors.As(err, &mv) {
		t.Fatalf("source write into an open window: want shard-moving, got %v", err)
	}
	if got, err := da.Get(db, "k"); err != nil || !bytes.Equal(got, []byte("pre-window")) {
		t.Fatalf("source read during the window: %q, %v", got, err)
	}

	if err := ma.sh.AbortRing(); err != nil {
		t.Fatal(err)
	}
	if got, err := ma.n.Read(db, "k"); err != nil || !bytes.Equal(got, []byte("pre-window")) {
		t.Fatalf("pre-window data lost across abort: %q, %v", got, err)
	}
	if err := da.Update(db, "k", []byte("after abort")); err != nil {
		t.Fatalf("write after abort: %v", err)
	}
}

// TestDestinationFreezesGainedCopy pins that a destination receiving a
// handoff does not serve the half-transferred inbound copy (the source is
// still authoritative), and that an abort drops exactly that copy while
// leaving the databases the destination already owned alone. Adding a
// member to a consistent-hash ring only moves databases to the newcomer, so
// the window that moves a database from a to b is one where a leaves.
func TestDestinationFreezesGainedCopy(t *testing.T) {
	mesh := netsim.NewMesh(13, "b")
	active := NewRing(1, []string{"a:1", "b:1"})
	mb := startMember(t, mesh, "b", "b:1", active, apiserver.Options{})

	pend := NewRing(2, []string{"b:1", "ghost:1"})
	gained := dbPlacedOn(t, active, "a:1", pend, "b:1")
	held := dbPlacedOn(t, active, "b:1", pend, "b:1")
	db := dialDirect(t, mesh, "b:1")
	if err := db.Insert(held, "k", []byte("held before the window")); err != nil {
		t.Fatal(err)
	}
	if err := mb.sh.InstallRing(pend.Marshal()); err != nil {
		t.Fatal(err)
	}
	if err := mb.sh.Transfer(gained, "k", []byte("half-transferred")); err != nil {
		t.Fatal(err)
	}

	_, err := db.Get(gained, "k")
	var mv *apiserver.ShardMovingError
	if !errors.As(err, &mv) {
		t.Fatalf("read of a half-transferred inbound copy: want shard-moving, got %v", err)
	}

	if err := mb.sh.AbortRing(); err != nil {
		t.Fatal(err)
	}
	if _, err := mb.n.Read(gained, "k"); !errors.Is(err, node.ErrNotFound) {
		t.Errorf("half-transferred copy survived the abort: err=%v", err)
	}
	if _, err := mb.n.Read(held, "k"); err != nil {
		t.Errorf("pre-window database dropped by the abort: %v", err)
	}
}

// TestRebalanceRefusesMergingBootstrappedClusters pins the coordinator's
// merge refusal: two members each bootstrapped as their own one-member ring
// both hold an acked X/k. Merging them would overwrite one side's acked
// value with the other's, so the rebalance must fail without opening a
// window anywhere, naming both members, and leave both values readable.
func TestRebalanceRefusesMergingBootstrappedClusters(t *testing.T) {
	mesh := netsim.NewMesh(17, "a", "b")
	ma := startMember(t, mesh, "a", "a:1", NewRing(1, []string{"a:1"}), apiserver.Options{})
	mb := startMember(t, mesh, "b", "b:1", NewRing(1, []string{"b:1"}), apiserver.Options{})

	x := dbOwnedBy(t, NewRing(2, []string{"a:1", "b:1"}), "b:1")
	if err := dialDirect(t, mesh, "a:1").Insert(x, "k", []byte("acked-on-a")); err != nil {
		t.Fatal(err)
	}
	if err := dialDirect(t, mesh, "b:1").Insert(x, "k", []byte("acked-on-b")); err != nil {
		t.Fatal(err)
	}

	_, err := Rebalance([]string{"a:1"}, []string{"a:1", "b:1"}, testRebalanceOptions(mesh))
	if err == nil || !strings.Contains(err.Error(), "a:1") || !strings.Contains(err.Error(), "b:1") {
		t.Fatalf("merging two bootstrapped clusters: want a refusal naming a:1 and b:1, got %v", err)
	}
	for _, m := range []*tmember{ma, mb} {
		if p := m.sh.Pending(); p != nil {
			t.Errorf("%s: refused rebalance left a window open: %v", m.sh.Self(), p)
		}
	}
	if got, err := ma.n.Read(x, "k"); err != nil || !bytes.Equal(got, []byte("acked-on-a")) {
		t.Errorf("a's acked value: %q, %v", got, err)
	}
	if got, err := mb.n.Read(x, "k"); err != nil || !bytes.Equal(got, []byte("acked-on-b")) {
		t.Errorf("b's acked value: %q, %v", got, err)
	}
}

// TestInstallRingRefusesStaleVsPending pins epoch monotonicity against the
// open window, not just the active ring: a lagging coordinator's proposal
// with an epoch at or below the pending window's must not replace the newer
// window (and silently discard its half-transferred copies).
func TestInstallRingRefusesStaleVsPending(t *testing.T) {
	mesh := netsim.NewMesh(14, "a")
	ma := startMember(t, mesh, "a", "a:1", NewRing(1, []string{"a:1"}), apiserver.Options{})

	newer := NewRing(3, []string{"a:1", "x:1"})
	if err := ma.sh.InstallRing(newer.Marshal()); err != nil {
		t.Fatal(err)
	}
	err := ma.sh.InstallRing(NewRing(2, []string{"a:1", "y:1"}).Marshal())
	if err == nil || !strings.Contains(err.Error(), "pending window 3") {
		t.Fatalf("stale install under an open window: want a pending-epoch refusal, got %v", err)
	}
	if p := ma.sh.Pending(); p == nil || !p.Equal(newer) {
		t.Fatalf("pending window clobbered by the stale install: %v", p)
	}
	// Idempotent re-install of the open window still converges silently.
	if err := ma.sh.InstallRing(newer.Marshal()); err != nil {
		t.Fatalf("idempotent re-install: %v", err)
	}
}

// TestRecoverAbortsSupersededWindow pins that recovery actively aborts a
// stale pending window (epoch below the committed tip) instead of waiting
// for a future install to abandon it: when the subsequent rebalance is a
// no-op (membership already matches), no install ever comes, and before the
// fix the window's databases stayed write-frozen forever.
func TestRecoverAbortsSupersededWindow(t *testing.T) {
	mesh := netsim.NewMesh(15, "a", "b", "c")
	ma := startMember(t, mesh, "a", "a:1", NewRing(1, []string{"a:1"}), apiserver.Options{})
	startMember(t, mesh, "b", "b:1", NewRing(4, []string{"a:1", "b:1"}), apiserver.Options{})
	mc := startMember(t, mesh, "c", "c:1", nil, apiserver.Options{})

	// A dead coordinator left a join window at epoch 2 open on a and c; the
	// cluster has since committed epoch 4 without them hearing an install.
	stale := NewRing(2, []string{"a:1", "c:1"})
	if err := ma.sh.InstallRing(stale.Marshal()); err != nil {
		t.Fatal(err)
	}
	if err := mc.sh.InstallRing(stale.Marshal()); err != nil {
		t.Fatal(err)
	}
	db := dbOwnedBy(t, stale, "c:1")
	da := dialDirect(t, mesh, "a:1")
	err := da.Insert(db, "k", []byte("frozen"))
	var mv *apiserver.ShardMovingError
	if !errors.As(err, &mv) {
		t.Fatalf("write under the stale window: want shard-moving, got %v", err)
	}

	// Target membership already matches the tip: this rebalance would
	// otherwise return without installing anything anywhere.
	ring, err := Rebalance([]string{"a:1", "b:1"}, []string{"a:1", "b:1"}, testRebalanceOptions(mesh))
	if err != nil {
		t.Fatalf("no-op rebalance over a stale window: %v", err)
	}
	if ring.Epoch != 4 {
		t.Errorf("recovered ring epoch = %d, want the committed tip 4", ring.Epoch)
	}
	if p := ma.sh.Pending(); p != nil {
		t.Errorf("stale window still open on a: %v", p)
	}
	if p := mc.sh.Pending(); p != nil {
		t.Errorf("stale window still open on c: %v", p)
	}
	if err := da.Insert(db, "k", []byte("thawed")); err != nil {
		t.Errorf("write after recovery still refused: %v", err)
	}
}

// TestRecoverFinishesCommittedWindowOnStraggler pins the commit half of
// recovery at the epoch boundary: when a window's epoch equals the committed
// tip's (someone committed it, a straggler crashed before its own commit),
// recovery must finish the commit on the straggler — before the fix that
// state was misread as "superseded" and the straggler stayed frozen forever.
func TestRecoverFinishesCommittedWindowOnStraggler(t *testing.T) {
	mesh := netsim.NewMesh(16, "a", "b")
	committed := NewRing(2, []string{"a:1", "b:1"})
	ma := startMember(t, mesh, "a", "a:1", NewRing(1, []string{"a:1"}), apiserver.Options{})
	mb := startMember(t, mesh, "b", "b:1", committed, apiserver.Options{})

	db := dbOwnedBy(t, committed, "b:1")
	da := dialDirect(t, mesh, "a:1")
	if err := da.Insert(db, "k", []byte("handed off")); err != nil {
		t.Fatal(err)
	}
	// The crashed rebalance got through handoff (b holds the copy) and b's
	// commit, but died before committing a.
	if err := mb.n.TransferUpsert(db, "k", []byte("handed off")); err != nil {
		t.Fatal(err)
	}
	if err := ma.sh.InstallRing(committed.Marshal()); err != nil {
		t.Fatal(err)
	}

	ring, err := Rebalance([]string{"a:1", "b:1"}, []string{"a:1", "b:1"}, testRebalanceOptions(mesh))
	if err != nil {
		t.Fatalf("recovery rebalance: %v", err)
	}
	if ring.Epoch != 2 {
		t.Errorf("recovered ring epoch = %d, want the committed window's 2", ring.Epoch)
	}
	if p := ma.sh.Pending(); p != nil {
		t.Errorf("straggler's window never committed: %v", p)
	}
	if got := ma.sh.Ring().Epoch; got != 2 {
		t.Errorf("straggler active epoch = %d, want 2", got)
	}
	if _, err := ma.n.Read(db, "k"); !errors.Is(err, node.ErrNotFound) {
		t.Errorf("moved database still on the straggler after commit: err=%v", err)
	}
	cc, err := DialCluster([]string{"a:1"}, testClientOptions(mesh, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if got, err := cc.Get(db, "k"); err != nil || !bytes.Equal(got, []byte("handed off")) {
		t.Errorf("routed read after straggler commit: %q, %v", got, err)
	}
}
