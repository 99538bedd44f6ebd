package repro.workloads

import repro.{Oracle, SparkSpec, SynthData}
import org.apache.spark.sql.functions._

class PageRankSpec extends SparkSpec {

  private lazy val edges = SynthData.edges(spark, nEdges = 4000, nNodes = 300)

  test("one PageRank iteration matches the DuckDB oracle") {
    val ranks = PageRankW.nodes(edges).select(col("node"), lit(1.0) as "rank")
    val stepped = PageRankW.step(edges, ranks)
      .select(col("node"), round(col("rank"), 6) as "rank")
    Oracle.assertEquivalent(stepped, PageRankW.oracleOneStepSql, "edges" -> edges)
  }

  test("ranks stay positive and bounded") {
    val ranks = PageRankW.run(edges, iters = 5)
    val stats = ranks.agg(min("rank"), max("rank")).collect()(0)
    assert(stats.getDouble(0) >= 0.15 - 1e-9)
    assert(stats.getDouble(1) < 1000)
    ranks.unpersist(); ()
  }

  test("iteration contracts: each step's L1 delta is at most d times the previous one") {
    var ranks = PageRankW.nodes(edges).select(col("node"), lit(1.0) as "rank")
    var prevDelta = Double.MaxValue
    for (i <- 1 to 8) {
      val next = PageRankW.step(edges, ranks)
      if (i >= 6) {
        val delta = next.as("a").join(ranks.as("b"), "node")
          .select(sum(abs(col("a.rank") - col("b.rank"))) as "d").collect()(0).getDouble(0)
        assert(delta <= PageRankW.damping * prevDelta + 1e-6)
        prevDelta = delta
      }
      ranks = next
    }
  }

  test("run's analysed plan at 8 steps has under 3x the lines it has at 4 (no doubling per step)") {
    def planLines(iters: Int) =
      PageRankW.run(edges, iters).unpersist().queryExecution.analyzed.toString.linesIterator.size
    assert(planLines(8) < 3 * planLines(4))
  }

  test("zipf-skewed destinations earn higher ranks than the median node") {
    val ranks = PageRankW.run(edges, iters = 5)
    val top = ranks.orderBy(desc("rank")).limit(1).collect()(0).getDouble(1)
    val med = ranks.agg(expr("percentile_approx(rank, 0.5)")).collect()(0).getDouble(0)
    assert(top > 5 * med)
    ranks.unpersist(); ()
  }
}
