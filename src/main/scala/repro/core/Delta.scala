package repro.core

/** A delta between a version `V_i` and its child `V_j` (§2.1, §3.2).
  *
  * `adds` (Δ⁺_{ij}) are composite keys present in `V_j` but not `V_i` —
  * records that originated in `V_j` through inserts or modifications.
  * `dels` (Δ⁻_{ij}) are composite keys present in `V_i` but not `V_j` —
  * records deleted outright, or replaced by a modification.
  *
  * Deltas are *symmetric*: Δ⁺_{ij} = Δ⁻_{ji}, so the same object can derive
  * either endpoint from the other. Both sides are sorted packed-ck arrays.
  */
final case class Delta(adds: Array[Long], dels: Array[Long]) {

  /** Consistency per Ghandeharizadeh et al. [20]: Δ⁺ ∩ Δ⁻ = ∅. */
  def isConsistent: Boolean = {
    // both arrays sorted: linear merge-intersection test
    var i = 0; var j = 0
    while (i < adds.length && j < dels.length) {
      if (adds(i) == dels(j)) return false
      else if (adds(i) < dels(j)) i += 1
      else j += 1
    }
    true
  }

  /** The inverse delta (deriving the parent from the child). */
  def invert: Delta = Delta(dels, adds)

  /** Apply to a parent membership set, producing the child membership: one
    * sorted walk over the parent, `dels` and `adds`.
    */
  def applyTo(parentMembers: Array[Long]): Array[Long] = {
    val p = parentMembers
    val out = new Array[Long](p.length + adds.length)
    var i = 0; var d = 0; var a = 0; var k = 0
    while (i < p.length || a < adds.length) {
      if (i < p.length && (a == adds.length || p(i) <= adds(a))) {
        while (d < dels.length && dels(d) < p(i)) d += 1
        if (d < dels.length && dels(d) == p(i)) d += 1 else { out(k) = p(i); k += 1 }
        i += 1
      } else { out(k) = adds(a); a += 1; k += 1 }
    }
    if (k == out.length) out else java.util.Arrays.copyOf(out, k)
  }

  /** Number of records touched — drives delta-store ingest cost. */
  def numChanges: Int = adds.length + dels.length
}

object Delta {
  val empty: Delta = Delta(Array.emptyLongArray, Array.emptyLongArray)

  /** Delta from explicit membership arrays (both must be sorted). */
  def between(parentMembers: Array[Long], childMembers: Array[Long]): Delta = {
    val p = parentMembers; val c = childMembers
    val adds = Array.newBuilder[Long]; val dels = Array.newBuilder[Long]
    var i = 0; var j = 0
    while (i < p.length && j < c.length) {
      if (p(i) == c(j)) { i += 1; j += 1 }
      else if (p(i) < c(j)) { dels += p(i); i += 1 }
      else { adds += c(j); j += 1 }
    }
    while (i < p.length) { dels += p(i); i += 1 }
    while (j < c.length) { adds += c(j); j += 1 }
    Delta(adds.result(), dels.result())
  }
}
