package repro.workloads

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** PageRank on DataFrames (paper Table 2, Graph class; the paper runs
  * GraphX's LiveJournalPageRank) — the iterative join/aggregate pattern
  * behind `AppModel.pageRank`. Edges: (src, dst).
  */
object PageRankW {

  val damping = 0.85

  /** Out-degree per source node. */
  def outDegrees(edges: DataFrame): DataFrame =
    edges.groupBy("src").agg(count(lit(1)) as "outDeg")

  /** The node set: every node that appears as a source or a destination. */
  def nodes(edges: DataFrame): DataFrame =
    edges.select(col("src") as "node").union(edges.select(col("dst") as "node")).distinct()

  /** One PageRank iteration: contributions flow along edges, ranks update to
    * (1−d) + d·Σ contribs (GraphX's formulation, no dangling redistribution).
    */
  def step(edges: DataFrame, ranks: DataFrame): DataFrame = {
    val contribs = edges
      .join(ranks, edges("src") === ranks("node"))
      .join(outDegrees(edges), "src")
      .select(col("dst") as "node", (col("rank") / col("outDeg")) as "contrib")
      .groupBy("node")
      .agg(sum("contrib") as "contrib")
    nodes(edges)
      .join(contribs, Seq("node"), "left")
      .select(col("node"),
        (lit(1.0 - damping) + lit(damping) * coalesce(col("contrib"), lit(0.0))) as "rank")
  }

  /** Run `iters` iterations from uniform ranks over the edge set's nodes.
    * Lazy; the result is cached. `edges` is best left uncached: Spark 4.1's
    * adaptive execution then reuses each step's edge, degree and node shuffles.
    */
  def run(edges: DataFrame, iters: Int): DataFrame =
    (1 to iters).foldLeft(nodes(edges).select(col("node"), lit(1.0) as "rank"))((r, _) => step(edges, r))
      .cache()

  /** DuckDB oracle for ONE iteration from uniform rank 1.0, over an
    * `edges(src, dst)` table — same join/aggregate semantics as `step`.
    */
  val oracleOneStepSql: String =
    """WITH nodes AS (SELECT DISTINCT src AS node FROM edges
      |               UNION SELECT DISTINCT dst FROM edges),
      |     deg AS (SELECT src, COUNT(*) AS outdeg FROM edges GROUP BY 1),
      |     contrib AS (SELECT e.dst AS node, SUM(1.0 / d.outdeg) AS c
      |                 FROM edges e JOIN deg d ON e.src = d.src GROUP BY 1)
      |SELECT n.node AS node, ROUND(0.15 + 0.85 * COALESCE(c.c, 0.0), 6) AS rank
      |FROM nodes n LEFT JOIN contrib c ON n.node = c.node""".stripMargin
}
