package repro.perfbench

import repro.core.RelM
import repro.linalg.LinAlg
import repro.opt._
import repro.sim.{AppModel, Hardware, MemoryConf, Simulator}
import repro.tables.Tables
import repro.tables.Tables.{PolicyRow, Table8Result}
import scala.collection.mutable

/** `tune-suite`: the paper's Table-8 evaluation without Spark. Each op is
  * `Tables.table8(sim, seed, Seq(app))` — Exhaustive, DDPG, BO, GBO and RelM
  * on one (app, seed) — over the five Cluster-A apps and TPC-H on Cluster B.
  * A pass covers `SeedsPerPass` consecutive seeds from the workload seed.
  *
  * The traced op calls the same public functions `table8` calls, in the
  * same order, with a span around each policy session; the replay then
  * checks its rows against `table8`'s and re-runs each BO/GBO session's
  * history prefixes through the GP and EI sweep, which must pick every
  * probe the session made.
  */
object TuneSuite extends Workload {
  val name = "tune-suite"

  /** 17 seeds × 6 apps = 102 ops, so p90 has ≥ 10 samples beyond it. */
  val SeedsPerPass = 17

  val Apps: Seq[(AppModel, Hardware)] =
    AppModel.clusterASuite.map(_ -> Hardware.ClusterA) :+ (AppModel.tpch -> Hardware.ClusterB)

  /** Stress-test budgets: BO/GBO 4 LHS + 26 adaptive, DDPG start + 10, RelM ≤ 2 profiles. */
  val Budget: Map[String, Int] = Map("BO" -> 30, "GBO" -> 30, "DDPG" -> 11, "RelM" -> 2)

  /** Exhaustive grid size per cluster. */
  val GridSize: Map[String, Int] = Map("A" -> 192, "B" -> 256)

  /** Warm-up: one op per app and seed. The seeds are fixed, so every run's
    * set-up does the same work whatever its workload seed.
    */
  val WarmUpSeeds: Seq[Long] = Seq(0L, 1L)

  val Policies: Seq[String] = Seq("Exhaustive", "DDPG", "BO", "GBO", "RelM")

  /** `GaussianProcess`'s default observation noise, for the replayed kernel matrices. */
  private val GpNoise = 1e-3

  final case class Op(app: AppModel, hw: Hardware, seed: Long) {
    override def toString: String = s"${app.name}@${hw.name}/seed$seed"
  }

  def setUp(seed: Long, tracer: Tracer): Prepared = {
    val sims = Seq(Hardware.ClusterA, Hardware.ClusterB).map(h => h.name -> new Simulator(h)).toMap
    val ops = for (s <- seed until seed + SeedsPerPass; (app, hw) <- Apps) yield Op(app, hw, s)
    for (s <- WarmUpSeeds; (app, hw) <- Apps) Tables.table8(sims(hw.name), s, Seq(app))
    new Suite(ops.toIndexedSeq, sims, tracer)
  }

  /** Checks every recommendation is a legal grid point and every policy
    * stayed within its stress-test budget.
    */
  def check(op: Op, rows: Seq[PolicyRow]): Unit = {
    require(rows.map(_.policy) == Policies, s"$op: policies ${rows.map(_.policy)}")
    for (r <- rows) {
      val n = r.conf.containersPerNode
      require(op.hw.containerChoices.contains(n) && r.conf.taskConcurrency >= 1 &&
        r.conf.taskConcurrency <= op.hw.maxConcurrency(n), s"$op ${r.policy}: illegal ${Tables.fmtConf(r.conf)}")
      if (r.policy == "Exhaustive")
        require(r.iterations == GridSize(op.hw.name), s"$op: exhaustive paid ${r.iterations} probes")
      else
        require(r.iterations >= 1 && r.iterations <= Budget(r.policy),
          s"$op ${r.policy}: ${r.iterations} probes over budget ${Budget(r.policy)}")
    }
  }

  /** One (app, seed)'s decision quality, as the paper scores it. */
  final case class Quality(gapPct: Map[String, Double], probes: Map[String, Int],
                           unsafe: Map[String, Int], relmInTop5: Boolean)

  def quality(op: Op, r: Table8Result): Quality = {
    val best = r.row(op.app.name, "Exhaustive").runtimeMin
    val rows = Policies.map(p => p -> r.row(op.app.name, p)).toMap
    Quality(
      gapPct = rows.map { case (p, row) => p -> (row.runtimeMin / best - 1) * 100 },
      probes = rows.map { case (p, row) => p -> row.iterations },
      unsafe = rows.map { case (p, row) => p -> (if (row.failedContainers > 0 || row.aborted) 1 else 0) },
      relmInTop5 = rows("RelM").runtimeMin <= r.top5PctileMin(op.app.name),
    )
  }

  /** A private field of a program object, read by reflection where the
    * program has no accessor for it. A renamed field fails the traced op.
    */
  private def field[T](obj: AnyRef, name: String): T = {
    val f = obj.getClass.getDeclaredFields.find(f => f.getName == name || f.getName.endsWith("$$" + name))
      .getOrElse(sys.error(s"${obj.getClass.getName} has no field $name"))
    f.setAccessible(true)
    f.get(obj).asInstanceOf[T]
  }

  /** What the traced op produced, kept for its replay. */
  private final case class Traced(rows: Seq[PolicyRow], space: ConfigSpace,
                                  exh: TuningTrace, ddpg: Ddpg, ddpgTr: TuningTrace, ddpgUpdates: Int,
                                  bo: BayesOpt, boTr: TuningTrace, gbo: BayesOpt, gboTr: TuningTrace,
                                  relm: repro.core.RelMResult)

  private final class Suite(val opList: IndexedSeq[Op], sims: Map[String, Simulator],
                            tracer: Tracer) extends Prepared {
    private val qualities = mutable.LinkedHashMap.empty[Int, Quality]
    private var last: Option[Traced] = None

    val ops: IndexedSeq[String] = opList.map(_.toString)

    def fingerprint: String = {
      val desc = opList.map(o => s"$o ${o.app}").mkString("\n")
      f"ops=${opList.size} apps=${Apps.size} seeds=${opList.head.seed}..${opList.last.seed} " +
        f"hash=${desc.hashCode}%08x"
    }

    def runOp(i: Int): Unit = {
      val op = opList(i)
      if (tracer.recording) runTraced(op)
      else {
        val r = Tables.table8(sims(op.hw.name), op.seed, Seq(op.app))
        check(op, r.rows)
        if (!qualities.contains(i)) qualities(i) = quality(op, r)
      }
    }

    /** `Tables.table8` for one app, call by call, with a span per session. */
    private def runTraced(op: Op): Unit = {
      val Op(app, hw, s) = op
      val sim = sims(hw.name)
      val space = new ConfigSpace(hw, app)
      val default = MemoryConf.default(hw)
      def env() = new TuningEnv(app, sim, s)
      def row(p: String, tr: TuningTrace) =
        PolicyRow(app.name, p, tr.recommended, tr.best.result.runtimeMin,
          tr.best.result.failedContainers, tr.best.result.aborted, tr.iterations)

      tracer.span("sim.run")(sim.run(app, default, s))
      val exh = tracer.span("opt.session.exhaustive")(Exhaustive.tune(space, env()))
      val ddpg = new Ddpg(space, maxNewSamples = 10, seed = s + 7)
      val ddpgTr = tracer.span("opt.session.ddpg")(ddpg.tune(env()))
      // Ddpg.tune's loop adds one transition to the replay buffer per pass,
      // and each train() call that finds enough transitions takes one Adam step.
      val ddpgPasses = field[mutable.ArrayBuffer[_]](ddpg, "replay").size
      val ddpgUpdates = field[Int](ddpg.actor, "t")
      val bo = new BayesOpt(space, guide = None, seed = s + 42)
      val boTr = tracer.span("opt.session.bo")(bo.tune(env()))
      val (stats, statRuns) = tracer.span("core.gather_stats")(RelM.gatherStats(app, sim, default, s))
      val gbo = new BayesOpt(space, guide = Some(stats), seed = s + 42)
      val gboTr = tracer.span("opt.session.gbo")(gbo.tune(env()))
      val relm = tracer.span("core.session.relm")(RelM.tune(app, sim, s))
      val relmObs = tracer.span("sim.run")(env().evaluate(relm.recommended))

      val rows = Seq(row("Exhaustive", exh), row("DDPG", ddpgTr), row("BO", boTr), row("GBO", gboTr),
        PolicyRow(app.name, "RelM", relm.recommended, relmObs.result.runtimeMin,
          relmObs.result.failedContainers, relmObs.result.aborted, relm.profileRuns.size))
      check(op, rows)
      tracer.count("sim.run.calls", 2L + exh.iterations + ddpgTr.iterations + boTr.iterations +
        statRuns.size + gboTr.iterations + relm.profileRuns.size)
      tracer.count("core.arbitrator.iterations", relm.candidates.map(_.iterations.toLong).sum)
      tracer.count("opt.ddpg.loop_passes", ddpgPasses)
      tracer.count("opt.ddpg.train_calls", ddpgUpdates)
      last = Some(Traced(rows, space, exh, ddpg, ddpgTr, ddpgUpdates, bo, boTr, gbo, gboTr, relm))
    }

    override def replay(i: Int): Unit = {
      val op = opList(i)
      val t = last.getOrElse(sys.error(s"$op: no traced op to replay"))
      last = None
      val sim = sims(op.hw.name)

      val table = tracer.span("check.table8")(Tables.table8(sim, op.seed, Seq(op.app)))
      require(table.rows == t.rows, s"$op: traced rows differ from Tables.table8's")

      replayBo(op, "BO", t.space, t.bo, t.boTr)
      replayBo(op, "GBO", t.space, t.gbo, t.gboTr)
      val features = tracer.span("opt.gbo.features")(t.space.all.iterator.map(c => t.gbo.features(c).sum).sum)
      require(!features.isNaN, s"$op: GBO features are NaN")
      tracer.count("opt.gbo.features.points", t.space.all.size)

      val states = t.ddpgTr.history.map(o => tracer.span("opt.ddpg.state")(t.ddpg.state(o)))
      states.foreach(st => tracer.span("opt.ddpg.actor")(t.ddpg.actor(st)))
      // As many updates as the session took, each on the session's final replay buffer.
      for (_ <- 1 to t.ddpgUpdates) tracer.span("opt.ddpg.train")(t.ddpg.train())

      tracer.span("sim.run.replay")(t.exh.history.foreach(o => sim.run(op.app, o.conf, op.seed)))
      tracer.count("sim.run.replayed", t.exh.history.size)
      tracer.span("core.candidates")(RelM.candidates(t.relm.stats, op.hw))
    }

    /** Re-runs each adaptive step of a BO/GBO session from its history
      * prefix: GP fit, the Cholesky of its kernel matrix, and the EI sweep,
      * whose pick must equal the probe the session made next.
      */
    private def replayBo(op: Op, policy: String, space: ConfigSpace, bo: BayesOpt,
                         tr: TuningTrace): Unit = {
      val hist = tr.history
      val bootstrap = space.lhs(4, op.seed + 42).distinct.size
      for (k <- bootstrap until hist.size) {
        val prefix = hist.take(k)
        val x = prefix.map(o => bo.features(o.conf)).toArray
        val y = prefix.map(_.objective).toArray
        val gp = new GaussianProcess()
        tracer.span("opt.gp.fit")(gp.fit(x, y))
        val kxx = Array.tabulate(k, k)((a, b) => gp.kernel(x(a), x(b)) + (if (a == b) GpNoise else 0.0))
        tracer.span("linalg.cholesky")(LinAlg.cholesky(kxx))
        val seen = prefix.map(_.conf).toSet
        val cands = space.all.filterNot(seen.contains)
        val tau = y.min
        val pick = tracer.span("opt.ei.sweep") {
          cands.iterator.map { c =>
            val (m, sd) = gp.predict(bo.features(c)); (c, bo.expectedImprovement(m, sd, tau))
          }.maxBy(_._2)._1
        }
        tracer.count("opt.ei.points", cands.size)
        require(pick == hist(k).conf, s"$op $policy: replay picked another probe at step ${k + 1}")
      }
    }

    override def report: Seq[Metric] = {
      val qs = qualities.values.toSeq
      val n = qs.size
      def mean(f: Quality => Double) = qs.map(f).sum / n
      Seq("RelM", "BO", "GBO", "DDPG").flatMap { p =>
        val key = p.toLowerCase
        Seq(Metric(s"gap_pct.$key", "%", mean(_.gapPct(p)), n),
          Metric(s"probes.$key", "count", mean(_.probes(p).toDouble), n),
          Metric(s"unsafe_recs.$key", "count", qs.map(_.unsafe(p)).sum.toDouble, n))
      } ++ Seq(
        Metric("unsafe_recs", "count", qs.map(_.unsafe.values.sum).sum.toDouble, n),
        Metric("relm_outside_top5", "count", qs.count(!_.relmInTop5).toDouble, n),
      )
    }
  }
}
