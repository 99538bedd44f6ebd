package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.workloads._

/** `spark-apps`: the five Table-2 patterns as `jobs/WorkloadsJob` runs them
  * at scale 1 — WordCount, SortByKey, K-means, SVM — plus PageRank at 8
  * iterations on `SynthData.edges(4000, 300)`. Each op is one app run wrapped
  * in `MetricsCollector.profile`, with the invariants the specs assert
  * checked on its output. No oracle runs here.
  */
object SparkApps extends Workload {
  val name = "spark-apps"

  val Lines = 50000L
  val WordsPerLine = 8
  val Pairs = 100000L
  val Points = 30000L
  val Edges = 4000L
  val Nodes = 300L
  val PageRankIters = 8

  def setUp(seed: Long, tracer: Tracer): Prepared = {
    val spark = SparkRuntime.session()
    val text = SynthData.textLines(spark, Lines, WordsPerLine, 500, seed)
    val pairs = SynthData.uniformKeys(spark, Pairs, 5000, seed + 1)
    val points = SynthData.points(spark, Points, 3, seed = seed + 2)
    val labeled = SynthData.labeledPoints(spark, Points, seed + 3)
    val edges = SynthData.edges(spark, Edges, Nodes, seed + 4)
    val prints = tracer.span("synth.gen") {
      Seq("text" -> text, "pairs" -> pairs, "points" -> points, "labeled" -> labeled, "edges" -> edges)
        .map { case (n, df) => SparkRuntime.fingerprint(n, df) }
    }
    // Warm-up: every app once on a small input.
    WordCountW.wordCounts(text.limit(100)).collect()
    SortByKeyW.sorted(pairs.limit(1000)).collect()
    KMeansW.run(spark, points.limit(300), k = 3, iters = 1)
    SvmW.train(labeled.limit(300), epochs = 1)
    PageRankW.run(edges.limit(400), iters = 2).unpersist()

    val apps: IndexedSeq[(String, () => Unit)] = IndexedSeq(
      "wordcount" -> { () =>
        val counts = run(spark, tracer, "wordcount")(WordCountW.wordCounts(text).collect())
        val total = counts.map(_.getLong(1)).sum
        require(total == Lines * WordsPerLine, s"wordcount: $total words, expected ${Lines * WordsPerLine}")
      },
      "sortbykey" -> { () =>
        // Collected, not counted: Spark drops a sort under a count.
        val ks = run(spark, tracer, "sortbykey")(SortByKeyW.sorted(pairs).select("k").collect())
          .map(_.getLong(0))
        require(ks.length == Pairs, s"sortbykey: ${ks.length} rows, expected $Pairs")
        require(ks.iterator.sliding(2).forall(w => w.length < 2 || w(0) <= w(1)), "sortbykey: keys out of order")
      },
      "kmeans" -> { () =>
        val (centers, inertia) = run(spark, tracer, "kmeans")(KMeansW.run(spark, points, k = 3, iters = 4))
        require(centers.nonEmpty && centers.size <= 3, s"kmeans: ${centers.size} centers")
        require(inertia > 0 && !inertia.isNaN && !inertia.isInfinite, s"kmeans: inertia $inertia")
      },
      "svm" -> { () =>
        val w = run(spark, tracer, "svm")(SvmW.train(labeled, epochs = 8))
        require(w.forall(x => !x.isNaN && !x.isInfinite), s"svm: weights ${w.toSeq}")
      },
      "pagerank" -> { () =>
        val (ranks, stats) = run(spark, tracer, "pagerank") {
          val r = PageRankW.run(edges, PageRankIters)
          (r, r.agg(min("rank"), count(lit(1))).collect()(0))
        }
        try {
          require(stats.getDouble(0) >= 0.15 - 1e-9, s"pagerank: rank ${stats.getDouble(0)} < 0.15")
          require(stats.getLong(1) > 0, "pagerank: no ranks")
          tracer.count("workloads.pagerank.plan_lines",
            ranks.queryExecution.optimizedPlan.toString.linesIterator.size.toLong)
        } finally { ranks.unpersist(); () }
      },
    )

    new Prepared {
      val fingerprint: String = prints.map(_._2).mkString(" ")
      val ops: IndexedSeq[String] = apps.map(_._1)
      def runOp(i: Int): Unit = apps(i)._2()
      override def close(): Unit = spark.stop()
    }
  }

  /** Runs `body` as `MetricsCollector.profile` does for the jobs, with spans
    * around the profiled call and the app itself; counts the footprint.
    */
  private def run[T](spark: SparkSession, tracer: Tracer, app: String)(body: => T): T = {
    val (r, fp) = tracer.span("workloads.profile") {
      MetricsCollector.profile(spark)(tracer.span(s"workloads.app.$app")(body))
    }
    tracer.count("workloads.spark.tasks", fp.tasks)
    tracer.count("workloads.spark.gc_ms", fp.gcTimeMs)
    tracer.count("workloads.spark.shuffle_write_bytes", fp.shuffleWriteBytes)
    tracer.count("workloads.spark.spill_bytes", fp.spilledBytes)
    r
  }
}
