package repro.index

import repro.core.{Assignment, Ck, Span, SubChunking, VersionedDataset}

import scala.collection.mutable

/** The two lossy projections of the key×version×chunk matrix (Fig 3b) that
  * the application server keeps in memory, plus per-chunk sizes.
  *
  * @param versionToChunks per version: sorted distinct chunk ids holding at
  *                        least one of its records
  * @param keyToChunks     primary key → sorted distinct chunk ids holding at
  *                        least one record of that key
  */
final case class ChunkIndexes(
    versionToChunks: Array[Array[Int]],
    keyToChunks: mutable.LongMap[Array[Int]],
    chunkBytes: Array[Long],
) {
  /** Adjacency-list size of the version→chunk index (4 B per entry, §2.4). */
  def versionIndexBytes: Long = versionToChunks.map(_.length.toLong * 4).sum

  /** Size of the key→chunk index (8 B key + 4 B per chunk entry). */
  def keyIndexBytes: Long =
    keyToChunks.iterator.map { case (_, cs) => 8L + cs.length.toLong * 4 }.sum
}

object ChunkIndexes {

  /** Build the projections from a dataset, its sub-chunking, and the
    * sub-chunk→chunk assignment.
    */
  def build(ds: VersionedDataset, sc: SubChunking, a: Assignment): ChunkIndexes = {
    val versionToChunks = sc.scMembersOrig.map(Span.image(_, a.itemChunk))
    val keyToChunks = mutable.LongMap.empty[Array[Int]]
    // uniqueCks is sorted by key: each key's records are one range of ids
    val cks = ds.uniqueCks
    var lo = 0
    while (lo < cks.length) {
      val key = Ck.key(cks(lo))
      var hi = lo
      while (hi < cks.length && Ck.key(cks(hi)) == key) hi += 1
      keyToChunks(key) = Span.image(sc.recordSc.slice(lo, hi), a.itemChunk)
      lo = hi
    }
    ChunkIndexes(versionToChunks, keyToChunks, a.chunkBytes(sc.scSizes))
  }
}
