package protocol

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestDatagramRequestRoundTrip: a granted attach carries the grant whole.
func TestDatagramRequestRoundTrip(t *testing.T) {
	m := AttachReply{OK: true, Datagram: DatagramGrant{Addr: "127.0.0.1:9999", Token: 0xfeedface, Epoch: 3}}
	got, err := UnmarshalAttachReply(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Errorf("round trip %+v, want %+v", got, m)
	}
}

// TestDatagramReplyRoundTrip: every shape of attach reply round-trips, the
// ones without a grant included.
func TestDatagramReplyRoundTrip(t *testing.T) {
	for _, m := range []AttachReply{
		{OK: true, Datagram: DatagramGrant{Addr: "127.0.0.1:9999", Token: 0xfeedface, Epoch: 3}},
		{OK: true},
		{OK: false, Reason: "at capacity"},
		{},
	} {
		got, err := UnmarshalAttachReply(m.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if got != m {
			t.Errorf("round trip %+v, want %+v", got, m)
		}
	}
}

// TestDatagramUnmarshalRejectsTruncated: an attach reply cut anywhere, or
// whose grant Addr claims more bytes than follow, is refused.
func TestDatagramUnmarshalRejectsTruncated(t *testing.T) {
	full := AttachReply{OK: true, Reason: "y", Datagram: DatagramGrant{Addr: "x", Token: 1, Epoch: 2}}.Marshal()
	for i := 0; i < len(full); i++ {
		if _, err := UnmarshalAttachReply(full[:i]); err == nil {
			t.Errorf("truncation at %d accepted", i)
		}
	}
	// OK, an empty Reason, then an Addr length of 65535 over one byte.
	hostile := []byte{1, 0, 0, 0xFF, 0xFF, 'x', 0, 0, 0}
	if _, err := UnmarshalAttachReply(hostile); !errors.Is(err, ErrTruncated) {
		t.Errorf("hostile Addr length: err %v, want ErrTruncated", err)
	}
}

// TestDatagramMsgTypeNames: the datagram path has no message of its own —
// its grant rides the attach reply.
func TestDatagramMsgTypeNames(t *testing.T) {
	for typ := MsgType(1); typ.String() != "unknown"; typ++ {
		if strings.HasPrefix(typ.String(), "datagram") {
			t.Errorf("type %d is %q", typ, typ)
		}
	}
}

// FuzzStreamFramingParity pins the transport-seam refactor to the legacy
// stream framing byte-for-byte: for any message type and payload, the
// append-style encoder, the legacy writer, and both readers must agree on
// the exact bytes. The TCP transport carries control messages,
// checkpoints, and resume handshakes — none of them may shift by a bit.
func FuzzStreamFramingParity(f *testing.F) {
	f.Add(uint8(MsgVideoFrame), []byte("frame"))
	f.Add(uint8(MsgBye), []byte{})
	f.Add(uint8(MsgCheckpoint), bytes.Repeat([]byte{0xA5}, 1024))
	f.Add(uint8(MsgAttachReply), AttachReply{OK: true, Datagram: DatagramGrant{Addr: "a"}}.Marshal())
	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		appended, err := AppendFrame(nil, MsgType(typ), payload)
		if err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
		var legacy bytes.Buffer
		if err := WriteMessage(&legacy, MsgType(typ), payload); err != nil {
			t.Fatalf("WriteMessage: %v", err)
		}
		if !bytes.Equal(appended, legacy.Bytes()) {
			t.Fatalf("append framing %x differs from legacy framing %x", appended, legacy.Bytes())
		}
		// Both readers recover the identical message.
		rtyp, rpayload, err := ReadMessage(bytes.NewReader(appended))
		if err != nil || rtyp != MsgType(typ) || !bytes.Equal(rpayload, payload) {
			t.Fatalf("ReadMessage: %v %v", rtyp, err)
		}
		fr := NewFrameReader(bytes.NewReader(appended))
		ftyp, fpayload, err := fr.Next()
		if err != nil || ftyp != MsgType(typ) || !bytes.Equal(fpayload, payload) {
			t.Fatalf("FrameReader: %v %v", ftyp, err)
		}
	})
}
