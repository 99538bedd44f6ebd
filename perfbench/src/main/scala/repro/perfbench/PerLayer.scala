package repro.perfbench

/** Aggregates of a traced run: spans by name, self times, counters. */
final class TraceSummary(spans: Seq[Span], counts: Map[String, Long],
                         extraCounts: Map[String, Double]) {
  private val byName = spans.groupBy(_.name)
  private val self = TraceMath.selfNs(spans)

  def calls(span: String): Int = byName.get(span).map(_.size).getOrElse(0)
  def totalNs(span: String): Long = byName.get(span).map(_.map(_.durNs).sum).getOrElse(0L)
  def meanNs(span: String): Double = if (calls(span) == 0) 0.0 else totalNs(span).toDouble / calls(span)
  def medianNs(span: String): Double =
    byName.get(span).map(s => Stats.median(s.map(_.durNs.toDouble))).getOrElse(0.0)
  def meanSelfNs(span: String): Double =
    byName.get(span).map(s => s.map(x => self(x.id).toDouble).sum / s.size).getOrElse(0.0)
  def count(name: String): Double = counts.get(name).map(_.toDouble).getOrElse(extraCounts.getOrElse(name, 0.0))
}

/** The per-layer metrics, in the order of BENCHMARK.json's `per_layer`.
  * Every workload prints all of them; a layer the workload does not enter
  * reads 0. Spans wrap the benchmark's own calls into each layer's public
  * functions (see the workloads); counts are exact.
  */
object PerLayer {

  val Apps: Seq[String] = Seq("wordcount", "sortbykey", "kmeans", "svm", "pagerank")

  def metrics(s: TraceSummary, tracedOverheadS: Double): Seq[Metric] = {
    def ms(name: String, span: String) = Metric(name, "ms", s.meanNs(span) / 1e6, s.calls(span))
    def us(name: String, span: String) = Metric(name, "us", s.meanNs(span) / 1e3, s.calls(span))
    /** A batch span's time per item, `items` counted beside it. */
    def usPer(name: String, span: String, items: String) = {
      val n = s.count(items)
      Metric(name, "us", if (n == 0) 0.0 else s.totalNs(span) / 1e3 / n, n.toInt)
    }
    def count(name: String) = Metric(name, "count", s.count(name))
    val rowsLoaded = s.count("oracle.rows_loaded")
    val checkS = s.totalNs("oracle.check") / 1e9
    val tableRows = s.count("synth.rows")
    Seq(
      ms("opt.session_ms.exhaustive", "opt.session.exhaustive"),
      ms("opt.session_ms.ddpg", "opt.session.ddpg"),
      ms("opt.session_ms.bo", "opt.session.bo"),
      ms("opt.session_ms.gbo", "opt.session.gbo"),
      ms("core.session_ms.relm", "core.session.relm"),
      ms("opt.gp.fit_ms", "opt.gp.fit"),
      Metric("opt.gp.fits", "count", s.calls("opt.gp.fit")),
      ms("opt.ei.sweep_ms", "opt.ei.sweep"),
      count("opt.ei.points"),
      usPer("opt.gbo.features_us", "opt.gbo.features", "opt.gbo.features.points"),
      ms("opt.ddpg.train_ms", "opt.ddpg.train"),
      count("opt.ddpg.train_calls"),
      count("opt.ddpg.loop_passes"),
      us("opt.ddpg.state_us", "opt.ddpg.state"),
      us("opt.ddpg.actor_us", "opt.ddpg.actor"),
      us("linalg.cholesky_us", "linalg.cholesky"),
      usPer("sim.run_us", "sim.run.replay", "sim.run.replayed"),
      count("sim.run.calls"),
      us("core.gather_stats_us", "core.gather_stats"),
      us("core.candidates_us", "core.candidates"),
      count("core.arbitrator.iterations"),
      Metric("synth.gen_s", "s", s.medianNs("synth.gen") / 1e9, s.calls("synth.gen")),
      ms("workloads.query_ms", "workloads.query"),
      ms("oracle.check_ms", "oracle.check"),
      count("oracle.rows_loaded"),
      Metric("oracle.load_rows_per_s", "1/s", if (checkS == 0) 0.0 else rowsLoaded / checkS),
      Metric("oracle.reload_ratio", "ratio", if (tableRows == 0) 0.0 else rowsLoaded / tableRows),
    ) ++ Apps.map(a => ms(s"workloads.app_ms.$a", s"workloads.app.$a")) ++ Seq(
      count("workloads.pagerank.plan_lines"),
      Metric("workloads.profile_overhead_ms", "ms", s.meanSelfNs("workloads.profile") / 1e6,
        s.calls("workloads.profile")),
      count("workloads.spark.tasks"),
      Metric("workloads.spark.gc_ms", "ms", s.count("workloads.spark.gc_ms")),
      Metric("workloads.spark.shuffle_write_mb", "MB", s.count("workloads.spark.shuffle_write_bytes") / 1048576.0),
      Metric("workloads.spark.spill_mb", "MB", s.count("workloads.spark.spill_bytes") / 1048576.0),
      Metric("trace.uncovered_ms", "ms", s.meanSelfNs("op") / 1e6, s.calls("op")),
      Metric("trace.overhead_s", "s", tracedOverheadS),
    )
  }
}
