package repro.index

import repro.core.{Assignment, Ck, Span, SubChunking, VersionedDataset}

import java.util.Arrays
import scala.collection.mutable.ArrayBuilder

/** The two lossy projections of the key×version×chunk matrix (Fig 3b) that
  * the application server keeps in memory, plus per-chunk sizes.
  *
  * The key projection is held in CSR (compressed sparse row) form over one
  * ascending key array: row r's values are `flat(off(r) until off(r + 1))`.
  * `keyOff`/`keyChunks` map key rank r (the position of a key in `keys`) to
  * the sorted distinct chunk ids holding a record of that key.
  * `chunkOff`/`chunkKeyRanks` are its transpose: chunk c → ascending ranks
  * of the keys it holds, i.e. the key side of the per-chunk maps M^C.
  * The transpose lets Q2 test a chunk against a key range with one binary
  * search instead of walking the range's keys.
  *
  * @param versionToChunks per version: sorted distinct chunk ids holding at
  *                        least one of its records
  * @param keys            every primary key, ascending
  * @param keyOff          CSR offsets into `keyChunks`, one per rank plus one
  * @param keyChunks       per key rank: sorted distinct chunk ids
  * @param chunkOff        CSR offsets into `chunkKeyRanks`, one per chunk plus one
  * @param chunkKeyRanks   per chunk: ascending ranks of the keys it holds
  */
final case class ChunkIndexes(
    versionToChunks: Array[Array[Int]],
    keys: Array[Long],
    keyOff: Array[Int],
    keyChunks: Array[Int],
    chunkOff: Array[Int],
    chunkKeyRanks: Array[Int],
    chunkBytes: Array[Long],
) {
  /** Adjacency-list size of the version→chunk index (4 B per entry, §2.4). */
  def versionIndexBytes: Long = versionToChunks.map(_.length.toLong * 4).sum

  /** Size of the key→chunk index (8 B key + 4 B per chunk entry). */
  def keyIndexBytes: Long = keys.length.toLong * 8 + keyChunks.length.toLong * 4

  /** `Arrays.binarySearch(keys, key)`, trying rank `key` first: keys are
    * distinct and non-negative, so `keys(r) == r` means rank r, and dense
    * key spaces (such as generated ones) hit it.
    */
  private def search(key: Long): Int =
    if (key >= 0 && key < keys.length && keys(key.toInt) == key) key.toInt
    else Arrays.binarySearch(keys, key)

  /** Rank of `key` in `keys`, or -1 if unknown. The key's chunk ids are
    * `keyChunks(keyOff(r) until keyOff(r + 1))`.
    */
  def keyRank(key: Long): Int = math.max(search(key), -1)

  /** Sorted distinct chunk ids holding a record of `key`; empty if unknown. */
  def keyToChunks(key: Long): Array[Int] = {
    val r = keyRank(key)
    if (r < 0) Array.emptyIntArray else Arrays.copyOfRange(keyChunks, keyOff(r), keyOff(r + 1))
  }

  /** Rank of the first key ≥ `key` (`keys.length` if none). */
  def rankFrom(key: Long): Int = {
    val r = search(key)
    if (r < 0) -r - 1 else r
  }

  /** Rank of the first key > `key` (`keys.length` if none). */
  def rankAfter(key: Long): Int = {
    val r = search(key)
    if (r < 0) -r - 1 else r + 1
  }

  /** Whether chunk `c` holds a key whose rank is in `[rlo, rhi)`. */
  def chunkHoldsRankIn(c: Int, rlo: Int, rhi: Int): Boolean = {
    val end = chunkOff(c + 1)
    var j = Arrays.binarySearch(chunkKeyRanks, chunkOff(c), end, rlo)
    if (j < 0) j = -j - 1
    j < end && chunkKeyRanks(j) < rhi
  }
}

object ChunkIndexes {

  /** Build the projections from a dataset, its sub-chunking, and the
    * sub-chunk→chunk assignment.
    */
  def build(ds: VersionedDataset, sc: SubChunking, a: Assignment): ChunkIndexes = {
    val image = new Span.Images(a.itemChunk)
    val versionToChunks = sc.scMembersOrig.map(image(_))
    val keys = new ArrayBuilder.ofLong
    val keyOff = new ArrayBuilder.ofInt
    val keyChunks = new ArrayBuilder.ofInt
    val chunkOff = new Array[Int](a.numChunks + 1) // counts at c + 1, then offsets
    // uniqueCks is sorted by key: each key's records are one range of ids
    val cks = ds.uniqueCks
    var lo = 0
    var entries = 0
    keyOff.addOne(0)
    while (lo < cks.length) {
      val key = Ck.key(cks(lo))
      var hi = lo
      while (hi < cks.length && Ck.key(cks(hi)) == key) hi += 1
      val cs = image(sc.recordSc, lo, hi) // the key's records are ids lo until hi
      var i = 0
      while (i < cs.length) { chunkOff(cs(i) + 1) += 1; i += 1 }
      keys.addOne(key)
      keyChunks.addAll(cs)
      entries += cs.length
      keyOff.addOne(entries)
      lo = hi
    }
    val (keyOffA, keyChunksA) = (keyOff.result(), keyChunks.result())
    // counting sort of the (rank, chunk) pairs by chunk; ranks arrive ascending
    var c = 0
    while (c < a.numChunks) { chunkOff(c + 1) += chunkOff(c); c += 1 }
    val next = chunkOff.clone()
    val chunkKeyRanks = new Array[Int](entries)
    var r = 0
    while (r + 1 < keyOffA.length) {
      var i = keyOffA(r)
      while (i < keyOffA(r + 1)) {
        c = keyChunksA(i)
        chunkKeyRanks(next(c)) = r
        next(c) += 1
        i += 1
      }
      r += 1
    }
    ChunkIndexes(versionToChunks, keys.result(), keyOffA, keyChunksA, chunkOff, chunkKeyRanks,
      a.chunkBytes(sc.scSizes))
  }
}
