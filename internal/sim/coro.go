//go:build go1.23

// The one file that uses iter.Pull, which needs go1.23. The build
// constraint raises this file's language version above go.mod's.

package sim

import "iter"

// resume switches into p, creating its coroutine on p's first activation,
// and returns once p yields or exits.
func (k *Kernel) resume(p *Proc) {
	if p.pull == nil {
		p.pull, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			p.run()
		})
	}
	p.pull()
}
