package am

import "tdbms/internal/page"

// Block is a page-at-a-time tuple delivery: one NextBlock call fetches the
// page under the iterator's cursor once and hands out every qualifying
// tuple still on it, instead of re-fetching the page per tuple the way Next
// does. Unlike Next's results the tuples are not copies: they alias the
// page the iterator just fetched, so they are valid only until the
// iterator's next call (or any other fetch through the same buffer
// handle). A consumer that keeps a tuple past that point copies it; the
// batch scan copies only the tuples its qualification accepts.
type Block struct {
	RIDs []page.RID
	Tups [][]byte
}

// Reset empties the block.
func (b *Block) Reset() {
	b.RIDs = b.RIDs[:0]
	b.Tups = b.Tups[:0]
}

// Len is the number of tuples in the block.
func (b *Block) Len() int { return len(b.Tups) }

// Add appends tup without copying it. Its capacity is clipped to its
// length, so an append to the tuple can never write into the page.
func (b *Block) Add(rid page.RID, tup []byte) {
	b.Tups = append(b.Tups, tup[:len(tup):len(tup)])
	b.RIDs = append(b.RIDs, rid)
}

// BlockIterator is optionally implemented by iterators that can deliver
// tuples page-at-a-time. NextBlock resets blk and fills it with up to max
// tuples from the page under the cursor, fetching that page exactly once;
// it returns false only at exhaustion (with an empty block). Every call
// returns after one page, so all of a block's tuples alias that one page.
// A call that stops at max mid-page leaves the cursor on that page, and
// the next call re-fetches it — the same fetch the tuple protocol would
// issue on resume, so the page-read accounting of a scan is identical
// under either protocol; only the per-tuple re-fetches within one page
// (buffer hits) disappear. Next and NextBlock may be interleaved freely:
// both advance the same cursor.
type BlockIterator interface {
	Iterator
	NextBlock(blk *Block, max int) (bool, error)
}
