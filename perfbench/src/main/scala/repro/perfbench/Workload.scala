package repro.perfbench

/** A measured value with its unit; `n` is the sample count behind it. */
final case class Metric(name: String, unit: String, value: Double, n: Int = 1)

/** One benchmark workload: a closed loop of one client that runs a fixed op
  * list per pass.
  */
trait Workload {
  def name: String

  /** Everything before the first timed op: sessions, inputs, caches,
    * warm-up. The runner calls it several times and keeps the last.
    */
  def setUp(seed: Long, tracer: Tracer): Prepared
}

/** A set-up workload, ready to run passes. */
trait Prepared {

  /** Row counts plus a content hash of the inputs. */
  def fingerprint: String

  /** The fixed op list of one pass. */
  def ops: IndexedSeq[String]

  /** Runs op `i` of the pass; throws when an output check fails. */
  def runOp(i: Int): Unit

  /** Traced run only: re-measures op `i`'s inner layers and checks them
    * against what the op returned. Runs outside the op's timing.
    */
  def replay(i: Int): Unit = ()

  /** Report-only metrics of the measured passes (never in the JSON line). */
  def report: Seq[Metric] = Nil

  /** Per-layer counts that are not spans, added to the traced metrics. */
  def layerCounts: Map[String, Double] = Map.empty

  def close(): Unit = ()
}

object Workloads {
  val all: Seq[Workload] = Seq(TuneSuite, SparkOracle, SparkApps)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name'; expected one of ${all.map(_.name).mkString(", ")}"))
}
