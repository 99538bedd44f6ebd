package repro.perfbench

import com.fasterxml.jackson.databind.node.ObjectNode
import scala.collection.mutable

/** One timed call from the benchmark into a layer. `parent` is -1 for a root
  * span. Spans recorded while op `op` ran share that id; set-up spans have
  * op -1.
  */
final case class Span(id: Int, name: String, parent: Int, op: Int, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs

  /** The span as one JSON object, for offline inspection of a traced run. */
  def toJson: ObjectNode = Main.Json.createObjectNode().put("id", id).put("name", name)
    .put("parent", parent).put("op", op).put("start_ns", startNs).put("end_ns", endNs)
}

/** In-memory recorder of spans and exact counts for the traced run. The
  * benchmark is one closed-loop client on one thread, so open spans form a
  * stack. While `recording` is false, `span` only runs its body.
  */
final class Tracer {
  var recording: Boolean = false
  var op: Int = -1

  private val done = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0
  private val counters = mutable.LinkedHashMap.empty[String, Long]

  def span[T](name: String)(body: => T): T =
    if (!recording) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        open = open.tail
        done += Span(id, name, parent, op, t0, t1)
      }
    }

  def count(name: String, n: Long): Unit =
    if (recording) counters(name) = counters.getOrElse(name, 0L) + n

  def spans: Vector[Span] = done.toVector
  def counts: Map[String, Long] = counters.toMap
}

/** Arithmetic on recorded spans. */
object TraceMath {

  /** Length of the union of `intervals` (start, end) clipped to [lo, hi]. */
  def coveredNs(lo: Long, hi: Long, intervals: Seq[(Long, Long)]): Long = {
    val clipped = intervals
      .map { case (a, b) => (math.max(a, lo), math.min(b, hi)) }
      .filter { case (a, b) => a < b }
      .sortBy(_._1)
    var total = 0L
    var curA = 0L
    var curB = Long.MinValue
    for ((a, b) <- clipped) {
      if (a > curB) {
        if (curB > curA) total += curB - curA
        curA = a
        curB = b
      } else curB = math.max(curB, b)
    }
    if (curB > curA) total += curB - curA
    total
  }

  /** Self time of every span: its duration minus the part of its interval
    * that its child spans cover.
    */
  def selfNs(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil).map(c => (c.startNs, c.endNs))
      s.id -> (s.durNs - coveredNs(s.startNs, s.endNs, kids))
    }.toMap
  }
}
