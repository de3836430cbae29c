package rstorebench

import java.lang.management.ManagementFactory

import repro.kvs.{Blob, KeyValueStore, Tally}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One timed interval around a call into a layer.
  *
  * `parent` is the id of the enclosing span (-1 for a root span); all spans
  * of one ingest or one query hang off that operation's root span, so the
  * root's id identifies the request. The JVM counters are deltas over the
  * interval: bytes allocated by the calling thread (Spark executor threads
  * are not included) and the collections and collection time of all
  * garbage collectors.
  */
final class Span(val id: Int, val parent: Int, val name: String, val startNs: Long) {
  var endNs: Long = startNs
  var allocBytes: Long = 0L
  var gcCount: Long = 0L
  var gcMs: Long = 0L
  def durNs: Long = endNs - startNs
}

/** JVM-wide counters read at span boundaries. */
object JvmCounters {
  private val threads: com.sun.management.ThreadMXBean = {
    val t = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    if (t.isThreadAllocatedMemorySupported && !t.isThreadAllocatedMemoryEnabled)
      t.setThreadAllocatedMemoryEnabled(true)
    t
  }
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toArray

  def allocatedBytes: Long = threads.getCurrentThreadAllocatedBytes

  def gcCount: Long = { var s = 0L; gcs.foreach(g => s += math.max(0L, g.getCollectionCount)); s }

  def gcMs: Long = { var s = 0L; gcs.foreach(g => s += math.max(0L, g.getCollectionTime)); s }

  /** Live heap once it has settled, in MiB: full collections 250 ms apart
    * until two readings agree within 1 MiB (at most 20). Spark's cleaner
    * thread frees a finished job's blocks only after a collection has
    * found their owners unreachable, so a single reading taken right after
    * the Shingle job still counted about 325 MiB of that job's state, or
    * not, depending on the cleaner's timing.
    */
  def liveHeapMb(): Double = {
    def read(): Double = { System.gc(); ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0 }
    var prev = read()
    Thread.sleep(250)
    var cur = read()
    var rounds = 2
    while (math.abs(cur - prev) > 1.0 && rounds < 20) {
      Thread.sleep(250)
      prev = cur
      cur = read()
      rounds += 1
    }
    cur
  }
}

/** In-memory span recorder. A disabled tracer runs the body and records
  * nothing, so the untraced run pays no tracing cost.
  */
final class Tracer(var enabled: Boolean) {
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  private var current = -1

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val s = new Span(spans.length, current, name, System.nanoTime())
      spans += s
      val outer = current
      current = s.id
      val a0 = JvmCounters.allocatedBytes
      val c0 = JvmCounters.gcCount
      val m0 = JvmCounters.gcMs
      try body
      finally {
        s.endNs = System.nanoTime()
        s.allocBytes = JvmCounters.allocatedBytes - a0
        s.gcCount = JvmCounters.gcCount - c0
        s.gcMs = JvmCounters.gcMs - m0
        current = outer
      }
    }

  /** Spans whose parent is `id`. */
  def children(id: Int): Iterator[Span] = spans.iterator.filter(_.parent == id)

  /** All spans as JSON lines. */
  def writeJsonl(path: java.nio.file.Path): Unit = {
    val w = java.nio.file.Files.newBufferedWriter(path)
    try spans.foreach { s =>
      w.write(s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","start_ns":${s.startNs},""" +
        s""""end_ns":${s.endNs},"alloc_bytes":${s.allocBytes},"gc_count":${s.gcCount},"gc_ms":${s.gcMs}}""")
      w.newLine()
    } finally w.close()
  }
}

/** A delegating store handed to `QueryProcessor` in the traced run: wraps
  * every read in a `kvs.get` span and remembers which chunk ids were
  * requested since the last `takeRequested()`.
  */
final class TracingStore(inner: KeyValueStore, tracer: Tracer) extends KeyValueStore {
  private val requested = mutable.ArrayBuffer.empty[Long]

  override def put(key: Long, value: Blob): Unit = inner.put(key, value)

  override def get(key: Long): Blob = {
    requested += key
    tracer.span("kvs.get")(inner.get(key))
  }

  override def multiGet(keys: Seq[Long]): Seq[Blob] = {
    requested ++= keys
    tracer.span("kvs.get")(inner.multiGet(keys))
  }

  override def tally: Tally = inner.tally

  def takeRequested(): Array[Long] = { val out = requested.toArray; requested.clear(); out }
}
