package replica

import "testing"

// TestCanonicalHostPort pins the address matching adoptPrimary relies on:
// equivalent spellings of one endpoint compare equal, and a host that
// merely ends with another's name does not.
func TestCanonicalHostPort(t *testing.T) {
	cases := []struct {
		a, b string
		same bool
	}{
		{"http://localhost:7070", "127.0.0.1:7070", true},
		{"localhost:7070", "http://127.0.0.1:7070", true},
		{"http://NODE1:7070", "http://node1:7070", true},
		{"http://node1:7070/", "node1:7070", true},
		{"http://a.internal:7070", "internal:7070", false},
		{"http://node1:7070", "http://node1:7071", false},
		{"http://node1:7070", "http://node2:7070", false},
	}
	for _, c := range cases {
		if got := canonicalHostPort(c.a) == canonicalHostPort(c.b); got != c.same {
			t.Errorf("canonicalHostPort(%q)=%q vs canonicalHostPort(%q)=%q: equal=%v, want %v",
				c.a, canonicalHostPort(c.a), c.b, canonicalHostPort(c.b), got, c.same)
		}
	}
}
