package cluster

import (
	"reflect"
	"testing"
)

func TestParsePeers(t *testing.T) {
	got, err := ParsePeers(" http://a:1 , b:2,https://c:3 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://a:1", "http://b:2", "https://c:3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestParsePeersRejects(t *testing.T) {
	for _, s := range []string{
		"",
		"   ",
		"http://a:1,,http://b:2",
		"http://a:1,http://a:1",   // duplicate
		"http://a:1,a:1",          // duplicate after normalization
		"http://a:1/path",         // path not allowed
		"http://a:1?q=1",          // query not allowed
		"http://u@a:1",            // userinfo not allowed
		"ftp://a:1",               // bad scheme
		"http://a",                // missing port
		"http://:1",               // missing host
		"http://a:1,http://b c:2", // whitespace inside
	} {
		if got, err := ParsePeers(s); err == nil {
			t.Errorf("ParsePeers(%q) = %v, want error", s, got)
		}
	}
}

func TestParsePeersFile(t *testing.T) {
	data := []byte(`# fleet
http://a:8723

b:8724   # second node
  https://c:8725
`)
	got, err := ParsePeersFile(data)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://a:8723", "http://b:8724", "https://c:8725"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if _, err := ParsePeersFile([]byte("# only comments\n\n")); err == nil {
		t.Fatal("comment-only file accepted")
	}
}

func TestNewValidatesSelf(t *testing.T) {
	if _, err := New(Config{Self: "http://a:1", Peers: []string{"http://b:2"}}); err == nil {
		t.Fatal("self outside the peer set accepted")
	}
	// Self in a different spelling still matches after normalization.
	c, err := New(Config{Self: "a:1", Peers: []string{"http://a:1", "http://b:2"}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Self() != "http://a:1" {
		t.Fatalf("self not normalized: %s", c.Self())
	}
}

// TestNewEncodesForwardMark pins that the forwarding mark is encoded once,
// at construction: it decodes to hop 1 from Self, and a self URL that
// cannot travel in the header is rejected by New instead of by every
// forward.
func TestNewEncodesForwardMark(t *testing.T) {
	c, err := New(Config{Self: "http://a:1", Peers: []string{"http://a:1", "http://b:2"}})
	if err != nil {
		t.Fatal(err)
	}
	f, present, err := ParseForward(c.ForwardMark())
	if err != nil || !present || f != (Forward{From: c.Self(), Hop: 1}) {
		t.Fatalf("ForwardMark %q decodes to %+v (present %v, err %v), want hop 1 from %s",
			c.ForwardMark(), f, present, err, c.Self())
	}
	self := "http://a;b:1"
	if _, err := NormalizePeerURL(self); err != nil {
		t.Skipf("%s no longer normalizes (%v): the header-safety check is unreachable", self, err)
	}
	if _, err := New(Config{Self: self, Peers: []string{self, "http://b:2"}}); err == nil {
		t.Fatalf("New accepted self %q, which is not header-safe", self)
	}
}
