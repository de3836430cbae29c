package repro.core

/** Composite keys and packed representations.
  *
  * The paper addresses every distinct record by a composite key
  * `(primary key K, version-id V)` where `V` is the version in which this
  * record *originated* (was inserted or last modified). We pack the pair
  * into a single Long for compact set/array processing on the driver:
  *
  * {{{ ck = (key << VersionBits) | version }}}
  *
  * supporting up to 2^20 (≈1M) versions and 2^43 primary keys — far beyond
  * anything the paper (10 001 versions) or our scaled datasets need.
  */
object Ck {
  /** Bits reserved for the version-id component. */
  val VersionBits: Int = 20
  /** Exclusive upper bound on version ids. */
  val MaxVersions: Int = 1 << VersionBits
  private val VersionMask: Long = (1L << VersionBits) - 1
  /** Exclusive upper bound on primary keys. */
  val KeyLimit: Long = 1L << (63 - VersionBits)

  /** Pack a (primary key, origin version) pair into a composite key. */
  def pack(key: Long, version: Int): Long = {
    require(version >= 0 && version < MaxVersions, s"version $version out of range")
    require(key >= 0 && key < KeyLimit, s"key $key out of range")
    (key << VersionBits) | version.toLong
  }

  /** Primary-key component of a packed composite key. */
  def key(ck: Long): Long = ck >>> VersionBits

  /** Origin-version component of a packed composite key. */
  def version(ck: Long): Int = (ck & VersionMask).toInt

  /** Index of the first composite key in the sorted `cks` whose primary key
    * is ≥ `key` (`cks.length` if none). Any `key` is accepted.
    */
  def lowerBound(cks: Array[Long], key: Long): Int =
    if (key <= 0) 0
    else if (key >= KeyLimit) cks.length
    else { val i = java.util.Arrays.binarySearch(cks, pack(key, 0)); if (i < 0) -i - 1 else i }

  /** Human-readable `⟨K,V⟩` form, used in error messages and tests. */
  def show(ck: Long): String = s"<K${key(ck)},V${version(ck)}>"
}

/** Tiny deterministic 64-bit mixing hash (splitmix64 finalizer).
  *
  * Used wherever both the driver-side model and the DuckDB oracle must
  * agree on a pseudo-random but reproducible value (record sizes, payload
  * content, min-hashes in tests).
  */
object Hash64 {
  def mix(x0: Long): Long = {
    var x = x0 + 0x9e3779b97f4a7c15L
    x = (x ^ (x >>> 30)) * 0xbf58476d1ce4e5b9L
    x = (x ^ (x >>> 27)) * 0x94d049bb133111ebL
    x ^ (x >>> 31)
  }

  /** Hash of a value under a given seed/stream id. */
  def apply(x: Long, seed: Long): Long = mix(x ^ mix(seed))

  /** Non-negative variant, handy for modulo-based draws. */
  def nonNeg(x: Long, seed: Long): Long = apply(x, seed) & Long.MaxValue
}
