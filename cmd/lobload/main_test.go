package main

import "testing"

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"0", 0, false},
		{"4096", 4096, false},
		{"4K", 4 << 10, false},
		{"4k", 4 << 10, false},
		{"256K", 256 << 10, false},
		{"2M", 2 << 20, false},
		{"1m", 1 << 20, false},
		{"", 0, true},
		{"K", 0, true},
		{"-1", 0, true},
		{"4G", 0, true},
	}
	for _, c := range cases {
		got, err := parseSize(c.in)
		if (err != nil) != c.err {
			t.Errorf("parseSize(%q) err = %v, want err %v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("parseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}
