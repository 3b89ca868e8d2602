package main

import (
	"fmt"
	"math/rand"
)

// op is one operation of a workload's stream: a statement the program
// under test receives as text, plus what the harness needs to account
// for it.
type op struct {
	ID    int
	Tpl   int // index into the workload's template list
	Pool  int // slot in the point pool; -1 for a fresh statement
	Class opClass
	Lang  language
	Text  string
	Key   int // bench key of an INSERT or DELETE
}

// poolEntry is one statement of the point pool.
type poolEntry struct {
	Tpl  int
	Text string
}

// buildPool renders the point pool: every template x poolPerTemplate
// constants, in template order.
func buildPool(templates []template, c *corpus) ([]poolEntry, error) {
	if len(c.steadyProducts) < 2 {
		return nil, fmt.Errorf("%s seed %d: %d steady products, the two-probe template needs 2", c.spec.Name, c.seed, len(c.steadyProducts))
	}
	var pool []poolEntry
	for ti := range templates {
		for j := 0; j < poolPerTemplate; j++ {
			pool = append(pool, poolEntry{Tpl: ti, Text: poolStatement(&templates[ti], c, j)})
		}
	}
	return pool, nil
}

// stream yields a workload's operations. A stream is a pure function of
// the seed and the corpus: it never looks at the clock or at results, so
// one seed gives one op sequence.
type stream interface {
	next() op
}

// pointStream walks the pool round-robin in a seed-shuffled order, so
// every statement runs equally often.
type pointStream struct {
	templates []template
	pool      []poolEntry
	order     []int
	n         int
}

func newPointStream(templates []template, pool []poolEntry, seed int64) *pointStream {
	return &pointStream{templates: templates, pool: pool, order: rand.New(rand.NewSource(seed)).Perm(len(pool))}
}

func (s *pointStream) next() op {
	slot := s.order[s.n%len(s.order)]
	e := s.pool[slot]
	t := &s.templates[e.Tpl]
	o := op{ID: s.n, Tpl: e.Tpl, Pool: slot, Class: t.Class, Lang: t.Lang, Text: e.Text}
	s.n++
	return o
}

// adhocStream cycles through the templates that take a constant and
// gives each statement a fresh one.
type adhocStream struct {
	templates []template
	varying   []int // indices of templates with a constant
	c         *corpus
	r         *rand.Rand
	n         int
}

func newAdhocStream(templates []template, c *corpus, seed int64) *adhocStream {
	s := &adhocStream{templates: templates, c: c, r: rand.New(rand.NewSource(seed))}
	for ti := range templates {
		if templates[ti].Kind != constNone {
			s.varying = append(s.varying, ti)
		}
	}
	return s
}

func (s *adhocStream) next() op {
	ti := s.varying[s.n%len(s.varying)]
	t := &s.templates[ti]
	o := op{ID: s.n, Tpl: ti, Pool: -1, Class: t.Class, Lang: t.Lang, Text: freshStatement(t, s.c, s.r)}
	s.n++
	return o
}

// analyticStream repeats a cycle in which template t appears Weight
// times, shuffled once by the seed so equal templates do not run back to
// back.
type analyticStream struct {
	templates []template
	cycle     []int
	n         int
}

func newAnalyticStream(templates []template, seed int64) *analyticStream {
	s := &analyticStream{templates: templates}
	for ti := range templates {
		for w := 0; w < templates[ti].Weight; w++ {
			s.cycle = append(s.cycle, ti)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(s.cycle), func(i, j int) { s.cycle[i], s.cycle[j] = s.cycle[j], s.cycle[i] })
	return s
}

func (s *analyticStream) next() op {
	ti := s.cycle[s.n%len(s.cycle)]
	t := &s.templates[ti]
	o := op{ID: s.n, Tpl: ti, Pool: -1, Class: t.Class, Lang: t.Lang, Text: t.Text}
	s.n++
	return o
}

// writeStream alternates INSERT of a fresh order with DELETE of the
// oldest order this stream inserted. Keys are client + n*clients, so
// the streams of concurrent clients never collide. insertTpl and
// deleteTpl are the write templates' indices in the workload's list.
type writeStream struct {
	seed               int64
	base               int // first key; keeps streams of different phases apart
	client, clients    int
	insertTpl, deleTpl int
	inserted           int
	live               []int // keys inserted and not yet deleted, oldest first
	n                  int
}

func (s *writeStream) next() op {
	o := op{ID: s.n, Pool: -1, Lang: langSQL}
	if s.n%2 == 0 {
		k := s.base + s.client + s.inserted*s.clients
		s.inserted++
		s.live = append(s.live, k)
		o.Tpl, o.Class, o.Key, o.Text = s.insertTpl, classInsert, k, insertStatement(s.seed, k)
	} else {
		k := s.live[0]
		s.live = s.live[1:]
		o.Tpl, o.Class, o.Key, o.Text = s.deleTpl, classDelete, k, deleteStatement(k)
	}
	s.n++
	return o
}

// rwStream is one serve-rw client: of every five operations four are
// reads — alternately from the point pool and freshly drawn — and one is
// a write.
type rwStream struct {
	point  *pointStream
	adhoc  *adhocStream
	writes *writeStream
	n      int
}

func (s *rwStream) next() op {
	var o op
	switch slot := s.n % 5; {
	case slot == 4:
		o = s.writes.next()
	case slot%2 == 0:
		o = s.point.next()
	default:
		o = s.adhoc.next()
	}
	o.ID = s.n
	s.n++
	return o
}
