package fsnet

import (
	"errors"
	"fmt"
)

// ViewSource exposes a node's membership view to the transport so view
// dissemination can ride the fsnet protocol (internal/gossip). The
// cluster tier implements it; fsnet only ever calls through this
// interface, keeping the import direction cluster → fsnet.
//
// Implementations must be safe for concurrent use: Epoch is read on the
// connection writer goroutines (once per batch), and NoteViewEpoch is
// called from reader goroutines — it must not block on network I/O.
type ViewSource interface {
	// Self is this node's advertised cluster address, identifying the
	// sender in view frames (an inbound TCP connection's remote address
	// is an ephemeral port, not a ring address).
	Self() string
	// Epoch is the installed view's epoch.
	Epoch() uint64
	// ViewSnapshot returns the installed epoch and member list,
	// consistently (one view, not two loads).
	ViewSnapshot() (epoch uint64, members []string)
	// ApplyView validates and installs a remote view. A stale epoch is
	// not an error — the receiver is simply newer — so it reports
	// applied=false with a nil error; err is reserved for invalid views.
	ApplyView(epoch uint64, members []string) (applied bool, err error)
	// NoteViewEpoch records that the peer at addr advertises epoch.
	// Called on transport reader goroutines for every hint seen; it must
	// return quickly (hand off to a background puller, never dial here).
	NoteViewEpoch(addr string, epoch uint64)
}

// maxViewMembers bounds the peer list of a msgViewPush. Matches the
// piggyback-history bound: far beyond any plausible ring, small enough
// that a hostile frame cannot balloon decode work.
const maxViewMembers = 1024

// viewMsg — the payload of msgViewHint and msgViewPull — is
// uvarint epoch, then the sender's advertised address.

func appendViewMsg(dst []byte, epoch uint64, sender string) []byte {
	dst = appendUvarint(dst, epoch)
	return appendString(dst, sender)
}

func decodeViewMsg(payload []byte) (epoch uint64, sender string, err error) {
	d := decoder{buf: payload}
	if epoch, err = d.uvarint(); err != nil {
		return 0, "", err
	}
	if sender, err = d.str(maxPath); err != nil {
		return 0, "", err
	}
	if err = d.done(); err != nil {
		return 0, "", err
	}
	return epoch, sender, nil
}

// viewPush — the payload of msgViewPush — extends viewMsg with the
// member list: uvarint epoch, sender address, uvarint count, members.
// An empty member list is legal: a drained node's goodbye view excludes
// itself, and a one-node ring shrinking to zero is representable.

func appendViewPush(dst []byte, epoch uint64, sender string, members []string) []byte {
	dst = appendUvarint(dst, epoch)
	dst = appendString(dst, sender)
	dst = appendUvarint(dst, uint64(len(members)))
	for _, m := range members {
		dst = appendString(dst, m)
	}
	return dst
}

func decodeViewPush(payload []byte) (epoch uint64, sender string, members []string, err error) {
	d := decoder{buf: payload}
	if epoch, err = d.uvarint(); err != nil {
		return 0, "", nil, err
	}
	if sender, err = d.str(maxPath); err != nil {
		return 0, "", nil, err
	}
	n, err := d.uvarint()
	if err != nil {
		return 0, "", nil, err
	}
	if n > maxViewMembers {
		return 0, "", nil, fmt.Errorf("fsnet: view of %d members exceeds limit %d", n, maxViewMembers)
	}
	members = make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		m, err := d.str(maxPath)
		if err != nil {
			return 0, "", nil, err
		}
		if m == "" {
			return 0, "", nil, errors.New("fsnet: empty view member address")
		}
		members = append(members, m)
	}
	if err = d.done(); err != nil {
		return 0, "", nil, err
	}
	return epoch, sender, members, nil
}
