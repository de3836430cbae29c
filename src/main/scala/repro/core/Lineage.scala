package repro.core

/** Lineage of modified records: each maps to its parent, the record of the
  * same primary key that it modified (§3.4).
  *
  * Stored as one parent version per delta add, aligned with the deltas:
  * `parentVersion(start(v) + i)` is the origin version of the parent of
  * `adds(v)(i)`, or -1 if that add is an insert. The add arrays are the
  * deltas' own, shared, so the table costs one `Int` per record. A lookup
  * finds the child among its origin version's adds by binary search; the
  * parent's composite key is the child's key packed with that version.
  *
  * As an immutable `Map` (child ck → parent ck) it iterates in delta order.
  */
final class Lineage private (
    private val adds: Array[Array[Long]],
    private val start: Array[Int],
    private val parentVersion: Array[Int],
) extends collection.immutable.AbstractMap[Long, Long] {

  /** Lineage parent of `ck`, or -1 if it has none (an insert, a root
    * record, or a record no delta adds).
    */
  def parentOf(ck: Long): Long = {
    val v = Ck.version(ck)
    if (v >= adds.length) -1L
    else {
      val i = java.util.Arrays.binarySearch(adds(v), ck)
      val pv = if (i < 0) -1 else parentVersion(start(v) + i)
      if (pv < 0) -1L else Ck.pack(Ck.key(ck), pv)
    }
  }

  def get(ck: Long): Option[Long] = { val p = parentOf(ck); if (p < 0) None else Some(p) }

  def iterator: Iterator[(Long, Long)] =
    adds.iterator.flatMap(_.iterator).map(ck => (ck, parentOf(ck))).filter(_._2 >= 0)

  // edits give a plain map
  def removed(ck: Long): Map[Long, Long] = iterator.toMap.removed(ck)
  def updated[V1 >: Long](ck: Long, parent: V1): Map[Long, V1] = iterator.toMap.updated(ck, parent)

  /** Whether this table is over the add arrays of `deltas` (by identity),
    * possibly followed by more versions.
    */
  private def covers(deltas: Array[Delta]): Boolean = {
    var v = 0
    while (v < deltas.length && v < adds.length && (adds(v) eq deltas(v).adds)) v += 1
    v == deltas.length
  }
}

object Lineage {

  /** The lineage given one parent version per delta add, in delta order
    * (-1 for an insert).
    */
  def apply(deltas: Array[Delta], parentVersion: Array[Int]): Lineage = {
    val start = starts(deltas)
    require(parentVersion.length == start(deltas.length),
      s"${parentVersion.length} parent versions for ${start(deltas.length)} delta adds")
    new Lineage(deltas.map(_.adds), start, parentVersion)
  }

  /** The lineage `map` (child ck → parent ck) over `deltas`. A `Lineage`
    * over the same add arrays is reused, with no copy, restricted to these
    * deltas' versions; any other map is converted. Rejects a child that the
    * delta of its origin version does not add, a parent of another primary
    * key, and a parent that does not originate in an earlier version.
    */
  def from(deltas: Array[Delta], map: collection.Map[Long, Long]): Lineage = map match {
    case l: Lineage if l.covers(deltas) =>
      if (l.adds.length == deltas.length) l
      else new Lineage(java.util.Arrays.copyOf(l.adds, deltas.length), l.start, l.parentVersion)
    case _ =>
      val start = starts(deltas)
      val parentVersion = Array.fill(start(deltas.length))(-1)
      map.foreach { case (child, parent) =>
        val v = Ck.version(child)
        val i = if (v < deltas.length) java.util.Arrays.binarySearch(deltas(v).adds, child) else -1
        if (i < 0) throw new IllegalArgumentException(
          s"lineage names record ${Ck.show(child)}, which the delta of its origin version does not add")
        if (Ck.key(parent) != Ck.key(child)) throw new IllegalArgumentException(
          s"lineage parent ${Ck.show(parent)} of record ${Ck.show(child)} has another primary key")
        // version ids grow from parent to child, so this also rules out a
        // cycle, on which a walk up the lineage would never end
        if (Ck.version(parent) >= v) throw new IllegalArgumentException(
          s"lineage parent ${Ck.show(parent)} of record ${Ck.show(child)} does not originate in an earlier version")
        parentVersion(start(v) + i) = Ck.version(parent)
      }
      new Lineage(deltas.map(_.adds), start, parentVersion)
  }

  /** Offset of each delta's first add in delta order, and the total. */
  private def starts(deltas: Array[Delta]): Array[Int] = {
    val start = new Array[Int](deltas.length + 1)
    var v = 0
    while (v < deltas.length) { start(v + 1) = start(v) + deltas(v).adds.length; v += 1 }
    start
  }
}
