package core

import (
	"hardtape/internal/node"
	"hardtape/internal/oram"
	"hardtape/internal/pager"
	"hardtape/internal/types"
)

// pageStores is the device's paged world state as one Sync built it
// from verified node data (step 11): a plain store in untrusted memory,
// with ORAM features an ORAM store (a fresh page dictionary over the
// device's one ORAM client), and the length of every code blob checked
// (trusted metadata, like the position map). Nothing writes a
// pageStores after Sync installs it, so a page the synced state lacks
// is absent, never stale.
type pageStores struct {
	plain    *pager.Store
	oram     *pager.Store // nil without an ORAM client
	codeLens map[types.Hash]uint32
}

func newPageStores(client *oram.Client) *pageStores {
	p := &pageStores{
		plain:    pager.NewStore(pager.NewPlainBackend()),
		codeLens: make(map[types.Hash]uint32),
	}
	if client != nil {
		p.oram = pager.NewStore(pager.NewORAMBackend(client))
	}
	return p
}

// placement names the stores that hold each kind of page: kv the
// account-meta and storage-group pages (kvORAM when it is the ORAM
// store), code the code pages execution runs, and codeORAM — nil unless
// ORAMCode — the same code pages in the ORAM, where fetching them is
// the traffic the adversary sees.
type placement struct {
	kv       *pager.Store
	kvORAM   bool
	code     *pager.Store
	codeORAM *pager.Store
}

// place is the device's one placement decision, by which Sync writes
// every page and hvReader reads it: K-V pages go into the ORAM store
// under ORAMStorage and into the plain store otherwise; code pages
// always go into the plain store, and also into the ORAM store under
// ORAMCode.
func (p *pageStores) place(f Features) placement {
	pl := placement{kv: p.plain, code: p.plain}
	if f.ORAMStorage {
		pl.kv, pl.kvORAM = p.oram, true
	}
	if f.ORAMCode {
		pl.codeORAM = p.oram
	}
	return pl
}

// add writes one verified account's pages, each once and blind, into
// the stores pl names; a code blob is written once per code hash.
func (p *pageStores) add(pl placement, a *node.Account) error {
	if _, seen := p.codeLens[a.Meta.CodeHash]; a.Code != nil && !seen {
		keys, pages := pager.SplitCode(a.Meta.CodeHash, a.Code)
		for _, st := range []*pager.Store{pl.code, pl.codeORAM} {
			if st == nil {
				continue
			}
			if err := st.WritePages(keys, pages); err != nil {
				return err
			}
		}
		p.codeLens[a.Meta.CodeHash] = a.Meta.CodeLen
	}
	return pl.kv.WritePages(pl.kv.AccountPages(a.Addr, &a.Meta, a.Storage))
}
