package node

import (
	"errors"
	"sort"
)

// Cluster-facing helpers: the shard-handoff path needs to enumerate what a
// node holds per database, upsert transferred records without admission
// control in the way, and drop a database wholesale at cutover. All of them
// compose existing primitives — a transferred record is a normal write with
// a normal oplog entry, so a shard's replica chain replicates handed-off
// data exactly like client traffic.

// DBNames returns the names of databases currently holding at least one key,
// sorted for deterministic iteration.
func (n *Node) DBNames() []string {
	out := n.keys.liveDBs()
	sort.Strings(out)
	return out
}

// DBKeys returns db's live keys, sorted. The snapshot is point-in-time-ish
// (sync.Map range semantics); handoff callers freeze the database's client
// traffic first, which makes it exact.
func (n *Node) DBKeys(db string) []string {
	out := n.keys.keysOf(db)
	sort.Strings(out)
	return out
}

// TransferUpsert stores an incoming shard-handoff record: insert if absent,
// update if present (a retried handoff replays records it already sent).
// Admission control is bypassed — transfers move data the cluster already
// acked, so shedding or rejecting them would turn overload into data loss.
// The write emits a normal oplog entry, so the receiving shard's secondary
// replicates it like any client write.
func (n *Node) TransferUpsert(db, key string, payload []byte) error {
	if _, ok := n.keys.load(db, key); ok {
		return n.Update(db, key, payload)
	}
	err := n.insertAdmitted(db, key, payload, false)
	if errors.Is(err, ErrDuplicateKey) {
		return n.Update(db, key, payload)
	}
	return err
}

// DropDB deletes every record in db through the normal delete path, emitting
// oplog entries so the node's secondary drops them too. Used at handoff
// cutover (the source sheds a moved-away database) and abort (the
// destination sheds a half-transferred one). Returns how many records were
// deleted.
func (n *Node) DropDB(db string) (int, error) {
	dropped := 0
	for _, key := range n.DBKeys(db) {
		err := n.Delete(db, key)
		if errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil {
			return dropped, err
		}
		dropped++
	}
	return dropped, nil
}
