package repro.perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import java.time.Instant
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

final case class Options(workload: String, seed: Long, seconds: Int, trace: Boolean,
                         launchedNs: Long, outDir: File)

object Options {
  def parse(args: Array[String]): Options = {
    require(args.length % 2 == 0, s"expected --flag value pairs, got ${args.mkString(" ")}")
    val kv = args.grouped(2).map(a => a(0) -> a(1)).toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing $k"))
    val o = Options(
      workload = get("--workload"),
      seed = get("--seed").toLong,
      seconds = get("--seconds").toInt,
      trace = get("--trace") match {
        case "0" => false
        case "1" => true
        case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
      },
      launchedNs = get("--launched-ns").toLong,
      outDir = new File(get("--out")),
    )
    require(o.seconds >= 1, s"--seconds must be at least 1, got ${o.seconds}")
    o
  }
}

/** Entry point:
  * `--workload <name> --seed <n> --seconds <s> --trace <0|1> --launched-ns <epoch ns> --out <dir>`.
  *
  * Sets the workload up `SetUps` times, runs passes over its fixed op list
  * until `seconds` have passed and at least `MinPasses` ran, and with
  * `--trace 1` runs one more pass with spans on. Prints a report, then as
  * its last line one JSON object: end-to-end metrics untraced, per-layer
  * metrics traced.
  */
object Main {

  /** Set-ups per run; `setup_s` is their median. */
  val SetUps = 5

  /** Untraced passes per run at least, however short `--seconds`: a pass
    * takes 7 to 12 s, so a count set by the clock alone would flip between
    * runs and move the medians with it.
    */
  val MinPasses = 2

  final case class Pass(wallS: Double, latMs: Seq[Double], failed: Int, heapMb: Double,
                        gcMs: Long, jitMs: Long)

  def main(args: Array[String]): Unit = {
    val o = Options.parse(args)
    val (report, json) = run(o)
    report.foreach(println)
    println(json)
  }

  def run(o: Options): (Seq[String], String) = {
    val wl = Workloads.byName(o.workload)
    val tracer = new Tracer
    tracer.recording = o.trace
    val setupS = ArrayBuffer.empty[Double]
    val fingerprints = ArrayBuffer.empty[String]
    var firstReadyNs = 0L
    var p: Prepared = null
    for (_ <- 1 to SetUps) {
      if (p != null) p.close()
      System.gc() // so the last set-up's garbage is not collected on this one's clock
      val t0 = System.nanoTime()
      p = wl.setUp(o.seed, tracer)
      setupS += (System.nanoTime() - t0) / 1e9
      if (firstReadyNs == 0L) firstReadyNs = epochNs()
      fingerprints += p.fingerprint
    }
    try {
      val passes = ArrayBuffer.empty[Pass]
      val deadline = System.nanoTime() + o.seconds * 1000000000L
      var nextOp = 0
      def pass(traced: Boolean): Pass = {
        val r = runPass(p, tracer, traced, nextOp)
        nextOp += p.ops.size
        r
      }
      do passes += pass(traced = false)
      while (System.nanoTime() < deadline || passes.size < MinPasses)
      val traced = if (o.trace) Some(pass(traced = true)) else None

      val all = passes ++ traced
      val attempted = all.map(_.latMs.size).sum
      val failed = all.map(_.failed).sum
      val lat = passes.flatMap(_.latMs).toSeq
      val wall = Stats.median(passes.map(_.wallS).toSeq)
      val endToEnd = Main.endToEnd(setupS.toSeq, passes.toSeq)
      val extra =
        Stats.percentile(lat, 0.9).map(Metric("op_p90_ms", "ms", _, lat.size)).toSeq ++
          Seq(Metric("failed_frac", "ratio", failed.toDouble / attempted, attempted)) ++
          Seq(Metric("setup_cold_s", "s", (firstReadyNs - o.launchedNs) / 1e9)) ++
          p.report
      val perLayer = traced.map { t =>
        val s = new TraceSummary(tracer.spans, tracer.counts, p.layerCounts)
        PerLayer.metrics(s, tracedOverheadS = t.wallS - wall)
      }
      val printed = perLayer.getOrElse(endToEnd)
      val correct = failed == 0 && fingerprints.distinct.size == 1

      if (o.trace) {
        o.outDir.mkdirs()
        write(new File(o.outDir, s"${o.workload}-seed${o.seed}.spans.jsonl"),
          tracer.spans.sortBy(_.id).map(s => Json.writeValueAsString(s.toJson)))
      }
      val report = Seq(
        s"perfbench workload=${o.workload} seed=${o.seed} seconds=${o.seconds} " +
          s"trace=${if (o.trace) 1 else 0} passes=${passes.size} ops/pass=${p.ops.size}",
        s"input fingerprint: ${fingerprints.distinct.mkString(" / DIFFERS FROM / ")}",
        f"  ${"set-up s"}%-24s ${setupS.map(x => f"$x%.3f").mkString(" ")}") ++
        passLines(p.ops, passes.toSeq) ++
        (endToEnd ++ extra ++ perLayer.getOrElse(Nil)).map(m =>
          f"  ${m.name}%-34s ${m.value}%.6g ${m.unit} (n=${m.n})")
      (report, resultLine(correct, attempted, failed, printed))
    } finally p.close()
  }

  lazy val Json = new ObjectMapper()

  /** The result line: `correct`, `attempted`, `failed`, and each metric's
    * value, with every digit the double carries, and unit.
    */
  def resultLine(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric]): String = {
    val root = Json.createObjectNode().put("correct", correct).put("attempted", attempted).put("failed", failed)
    val byName = root.putObject("metrics")
    for (m <- metrics) {
      require(!m.value.isNaN && !m.value.isInfinite, s"${m.name}: not a finite number: ${m.value}")
      byName.putObject(m.name).put("value", m.value).put("unit", m.unit)
    }
    Json.writeValueAsString(root)
  }

  /** The end-to-end metrics, in the order of BENCHMARK.json's `end_to_end`. */
  def endToEnd(setupS: Seq[Double], passes: Seq[Pass]): Seq[Metric] = {
    val lat = passes.flatMap(_.latMs)
    Seq(
      Metric("setup_s", "s", Stats.median(setupS), setupS.size),
      Metric("wall_s", "s", Stats.median(passes.map(_.wallS)), passes.size),
      Metric("op_p50_ms", "ms", Stats.median(lat), lat.size),
      // After the first pass, so the same work precedes it in every run;
      // Spark's own bookkeeping keeps growing over later passes.
      Metric("retained_heap_mb", "MB", passes.head.heapMb),
    )
  }

  /** Per-pass wall, GC, JIT and heap figures, and op latencies by op kind
    * (the op name up to any '/'), which show where a run's time varied.
    */
  private def passLines(ops: Seq[String], passes: Seq[Pass]): Seq[String] = {
    def row(label: String, xs: Seq[String]) = f"  $label%-24s ${xs.mkString(" ")}"
    val kinds = ops.indices.groupBy(i => ops(i).takeWhile(_ != '/')).toSeq.sortBy(_._2.head)
    Seq(row("pass wall s", passes.map(x => f"${x.wallS}%.3f")),
      row("pass gc ms", passes.map(_.gcMs.toString)),
      row("pass jit ms", passes.map(_.jitMs.toString)),
      row("pass heap MB", passes.map(x => f"${x.heapMb}%.1f"))) ++
      kinds.map { case (kind, idx) =>
        val xs = passes.flatMap(ps => idx.map(ps.latMs))
        row(s"op $kind", Seq(f"p50 ${Stats.median(xs)}%.1f ms (n=${xs.size})"))
      }
  }

  private def runPass(p: Prepared, tracer: Tracer, traced: Boolean, firstOp: Int): Pass = {
    tracer.recording = traced
    var failed = 0
    var replayNs = 0L
    val lat = ArrayBuffer.empty[Double]
    val gc0 = gcMs()
    val jit0 = ManagementFactory.getCompilationMXBean.getTotalCompilationTime
    val t0 = System.nanoTime()
    for (i <- p.ops.indices) {
      tracer.op = firstOp + i
      val s = System.nanoTime()
      val ok = attempt(p.ops(i))(tracer.span("op")(p.runOp(i)))
      lat += (System.nanoTime() - s) / 1e6
      if (!ok) failed += 1
      else if (traced) {
        val r0 = System.nanoTime()
        if (!attempt(s"${p.ops(i)} (replay)")(tracer.span("replay")(p.replay(i)))) failed += 1
        replayNs += System.nanoTime() - r0
      }
    }
    val wallS = (System.nanoTime() - t0 - replayNs) / 1e9
    val gc = gcMs() - gc0
    val jit = ManagementFactory.getCompilationMXBean.getTotalCompilationTime - jit0
    tracer.recording = false
    tracer.op = -1
    Pass(wallS, lat.toSeq, failed, retainedHeapMb(), gc, jit)
  }

  private def attempt(what: String)(body: => Unit): Boolean =
    try { body; true }
    catch {
      case NonFatal(e) =>
        System.err.println(s"[perfbench] FAILED $what: $e")
        false
    }

  /** Heap in use after a full collection, in MB of 2^20 bytes. */
  private def retainedHeapMb(): Double = {
    System.gc()
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  private def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  private def epochNs(): Long = {
    val i = Instant.now()
    i.getEpochSecond * 1000000000L + i.getNano
  }

  private def write(f: File, lines: Seq[String]): Unit = {
    val w = new PrintWriter(f, "UTF-8")
    try lines.foreach(w.println) finally w.close()
  }
}
