package rstorebench

import repro.core.{Ck, RetrievalCost}
import repro.query.QueryProcessor

import scala.collection.mutable
import scala.util.Random

/** Reference answers derived from the generated history alone (never from
  * the `VersionedDataset` under test):
  *  - Q1: the version's root-to-version path replayed with `Delta.applyTo`
  *    (memoised per version, so each delta is applied once);
  *  - Q2: the key filter applied to the replayed version;
  *  - Q3: every delta's adds for the key;
  *  - point: the live record for the key in the replayed version, which
  *    names the record's origin version.
  */
final class Reference(h: History) {
  private val memo = new Array[Array[Long]](h.tree.size)

  /** Records ever added per key, sorted by composite key. */
  private val byKey: mutable.LongMap[Array[Long]] = {
    val b = mutable.LongMap.empty[mutable.ArrayBuilder.ofLong]
    h.deltas.foreach(_.adds.foreach(ck => b.getOrElseUpdate(Ck.key(ck), new mutable.ArrayBuilder.ofLong) += ck))
    val out = mutable.LongMap.empty[Array[Long]]
    b.foreachEntry { (k, cks) => val a = cks.result(); java.util.Arrays.sort(a); out(k) = a }
    out
  }

  /** Every key ever inserted, ascending. */
  val allKeys: Array[Long] = { val a = byKey.keys.toArray; java.util.Arrays.sort(a); a }

  def members(v: Int): Array[Long] = {
    if (memo(v) == null) {
      var path = List.empty[Int]
      var u = v
      while (u != -1 && memo(u) == null) { path ::= u; u = h.tree.parent(u) }
      path.foreach { x =>
        memo(x) = if (x == 0) h.deltas(0).adds else h.deltas(x).applyTo(memo(h.tree.parent(x)))
      }
    }
    memo(v)
  }

  def range(v: Int, lo: Long, hi: Long): Array[Long] =
    members(v).filter { ck => val k = Ck.key(ck); k >= lo && k <= hi }

  def evolution(key: Long): Array[Long] = byKey.getOrElse(key, Array.emptyLongArray)

  def point(v: Int, key: Long): Option[Long] = {
    val m = members(v)
    var i = java.util.Arrays.binarySearch(m, Ck.pack(key, 0))
    if (i < 0) i = -i - 1
    if (i < m.length && Ck.key(m(i)) == key) Some(m(i)) else None
  }

  /** Keys of `allKeys` inside `[lo, hi]`. */
  def keysIn(lo: Long, hi: Long): Int = {
    def lowerBound(x: Long): Int = {
      val i = java.util.Arrays.binarySearch(allKeys, x)
      if (i >= 0) i else -i - 1
    }
    lowerBound(hi + 1) - lowerBound(lo)
  }
}

/** One query of the mix. `kind` indexes `Query.Kinds`. */
sealed trait Query { def kind: Int }
final case class Q1(v: Int) extends Query { def kind: Int = 0 }
final case class Q2(v: Int, lo: Long, hi: Long) extends Query { def kind: Int = 1 }
final case class Q3(key: Long) extends Query { def kind: Int = 2 }
final case class Point(v: Int, key: Long) extends Query { def kind: Int = 3 }

object Query {
  val Kinds: Array[String] = Array("q1", "q2", "q3", "point")

  /** The result of executing a query against the layout. */
  final case class Outcome(answer: Array[Long], cost: RetrievalCost)

  def execute(qp: QueryProcessor, q: Query): Outcome = q match {
    case Q1(v)         => val (a, c) = qp.fullVersion(v); Outcome(a, c)
    case Q2(v, lo, hi) => val (a, c) = qp.range(v, lo, hi); Outcome(a, c)
    case Q3(key)       => val (a, c) = qp.evolution(key); Outcome(a, c)
    case Point(v, key) => val (a, c) = qp.point(v, key); Outcome(a.toArray, c)
  }

  def expected(ref: Reference, q: Query): Array[Long] = q match {
    case Q1(v)         => ref.members(v)
    case Q2(v, lo, hi) => ref.range(v, lo, hi)
    case Q3(key)       => ref.evolution(key)
    case Point(v, key) => ref.point(v, key).toArray
  }

  def correct(ref: Reference, q: Query, o: Outcome): Boolean =
    java.util.Arrays.equals(o.answer, expected(ref, q))
}

/** The closed-loop query mix: 25 % each of Q1, Q2, Q3 and point. Versions
  * are uniform, each kind drawing from its own `Deck`; Q2 ranges cover 10 % of the key space (as in
  * `Experiments.queryPerf`); Q3 keys are uniform over every key ever
  * inserted, from a `Deck`; point keys are uniform over the chosen
  * version's live keys.
  */
final class QueryMix(ref: Reference, nVersions: Int, seed: Long) {
  private val rnd = new Random(seed * 0x9E3779B97F4A7C15L + 0x51ED)
  private val keyLo = ref.allKeys.head
  private val keyHi = ref.allKeys.last
  private val rangeWidth = math.max(1L, (keyHi - keyLo) / 10)
  private val q1Versions = new Deck(nVersions, rnd)
  private val q2Versions = new Deck(nVersions, rnd)
  private val pointVersions = new Deck(nVersions, rnd)
  private val q3Keys = new Deck(ref.allKeys.length, rnd)

  def q2(): Q2 = {
    val v = q2Versions.next()
    val lo = keyLo + (rnd.nextDouble() * (keyHi - keyLo - rangeWidth)).toLong
    Q2(v, lo, lo + rangeWidth)
  }

  /** `n` ranges whose low keys are evenly spaced over the key space and
    * whose versions are evenly spaced and randomly paired with them: the
    * same distribution as `q2()`, sampled with less variance.
    */
  def q2Grid(n: Int): Array[Q2] = {
    val perm = new Random(rnd.nextLong()).shuffle((0 until n).toVector)
    Array.tabulate(n) { i =>
      val lo = keyLo + ((i + 0.5) / n * (keyHi - keyLo - rangeWidth)).toLong
      Q2(((perm(i) + 0.5) / n * nVersions).toInt, lo, lo + rangeWidth)
    }
  }

  def point(): Point = {
    val v = pointVersions.next()
    val live = ref.members(v)
    Point(v, Ck.key(live(rnd.nextInt(live.length))))
  }

  def next(): Query = rnd.nextInt(4) match {
    case 0 => Q1(q1Versions.next())
    case 1 => q2()
    case 2 => Q3(ref.allKeys(q3Keys.next()))
    case _ => point()
  }
}

/** Uniform draws from `0 until n` without replacement within a pass: the
  * indices in a seeded random order, reshuffled after every full pass. Each
  * index is drawn equally often, so a tail percentile, which on a small
  * version tree rests on a handful of slow versions, does not move with how
  * often those few happened to be drawn.
  */
final class Deck(n: Int, rnd: Random) {
  require(n >= 1)
  private val cards = Array.range(0, n)
  private var pos = n

  def next(): Int = {
    if (pos == n) {
      var i = n - 1
      while (i > 0) {
        val j = rnd.nextInt(i + 1)
        val t = cards(i); cards(i) = cards(j); cards(j) = t
        i -= 1
      }
      pos = 0
    }
    pos += 1
    cards(pos - 1)
  }
}
