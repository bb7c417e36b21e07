package core

// ownership is the epoch-versioned block-ownership table the reassign
// policy maintains: which workers are permanently dead and which survivor
// hosts each dead worker's Vblock range. The table lives on the master
// (the job), is bumped to a new epoch on every adoption, and is mirrored
// into the comm fabric (comm.Rehomer) so in-flight traffic stamped with a
// dead epoch is rejected at the receiver and re-routed by the sender —
// never silently accepted by an endpoint that no longer owns the range.
//
// Adoption is whole-origin: a dead worker's entire partition moves to one
// survivor, and the adopted unit keeps answering at its origin slot (the
// fabric rewires the slot's address to the host). That choice is what
// keeps results byte-identical — b-pull's per-origin combine fold trees
// and push's per-origin packet canonicalisation both assume one origin is
// served by one endpoint, so splitting a range across hosts would reorder
// floating-point folds.
type ownership struct {
	epoch int64  // current ownership epoch; starts at 1, bumped per adoption
	dead  []bool // dead[w]: worker w is permanently lost
	hosts []int  // hosts[w]: worker hosting w's partition (w itself while alive)
}

func newOwnership(n int) *ownership {
	o := &ownership{epoch: 1, dead: make([]bool, n), hosts: make([]int, n)}
	for i := range o.hosts {
		o.hosts[i] = i
	}
	return o
}

// hostOf reports the worker hosting w's partition.
func (o *ownership) hostOf(w int) int { return o.hosts[w] }

// isDead reports whether w is permanently lost.
func (o *ownership) isDead(w int) bool { return o.dead[w] }

// deadCount reports how many workers have been lost.
func (o *ownership) deadCount() int {
	n := 0
	for _, d := range o.dead {
		if d {
			n++
		}
	}
	return n
}

// markDead records the permanent loss of fw without assigning a host or
// bumping the epoch — the recovery driver marks every loss first so host
// picking sees the complete dead set, then adopts unit by unit.
func (o *ownership) markDead(fw int) { o.dead[fw] = true }

// adopt marks fw dead, assigns its partition to host, and bumps the
// epoch. Returns the new epoch.
func (o *ownership) adopt(fw, host int) int64 {
	o.dead[fw] = true
	o.hosts[fw] = host
	o.epoch++
	return o.epoch
}

// adoptedBy lists the dead origins hosted by h, ascending. The host's own
// id is never in the list.
func (o *ownership) adoptedBy(h int) []int {
	var out []int
	for w, hw := range o.hosts {
		if w != h && hw == h && o.dead[w] {
			out = append(out, w)
		}
	}
	return out
}

// survivors lists the live worker ids, ascending.
func (o *ownership) survivors() []int {
	var out []int
	for w, d := range o.dead {
		if !d {
			out = append(out, w)
		}
	}
	return out
}
