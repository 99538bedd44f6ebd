package repro.perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.Oracle
import repro.workloads.TpchQueries

/** `spark-oracle`: the six TPC-H-lite queries on `SynthData` tables that are
  * generated and cached once per set-up. Each op runs one query and checks
  * it with `Oracle.assertEquivalent`, which loads the query's tables into
  * DuckDB; that load dominates the op.
  *
  * `TpchQueries.Tpch` never passes its `seed` to `SynthData`, so the tables
  * are the same for every workload seed; the seed only orders the queries.
  *
  * In the traced pass the Oracle gets each table through a filter that
  * counts the rows it lets through, so `oracle.rows_loaded` counts the rows
  * the Oracle actually collected for loading.
  */
object SparkOracle extends Workload {
  val name = "spark-oracle"

  /** Scale factor: lineitem has 3,000 rows. */
  val Sf = 0.0005

  def setUp(seed: Long, tracer: Tracer): Prepared = {
    val spark = SparkRuntime.session()
    val t = tracer.span("synth.gen") {
      val t = TpchQueries.Tpch(spark, Sf, seed)
      Seq(t.lineitem, t.orders, t.customer, t.part).foreach(_.cache().count())
      t
    }
    val tables = Map("lineitem" -> t.lineitem, "orders" -> t.orders,
      "customer" -> t.customer, "part" -> t.part)
    val prints = tables.toSeq.sortBy(_._1).map { case (n, df) => SparkRuntime.fingerprint(n, df) }
    val rows = tables.keys.toSeq.sorted.zip(prints.map(_._1)).toMap
    val loadedRows = spark.sparkContext.longAccumulator("oracle.rows_loaded")
    val countRow = udf(() => { loadedRows.add(1); true }).asNondeterministic()
    val counted = tables.map { case (n, df) => n -> df.filter(countRow()) }
    // Warm-up: one small oracle check loads the DuckDB driver and JDBC path.
    Oracle.assertEquivalent(
      t.customer.groupBy("c_mktsegment").agg(count(lit(1)) as "cnt"),
      "SELECT c_mktsegment, COUNT(*) AS cnt FROM customer GROUP BY c_mktsegment",
      "customer" -> t.customer)
    val queries = new scala.util.Random(seed).shuffle(TpchQueries.all(t)).toIndexedSeq

    new Prepared {
      val fingerprint: String = s"sf=$Sf " + prints.map(_._2).mkString(" ")
      val ops: IndexedSeq[String] = queries.map(_.name)

      def runOp(i: Int): Unit = {
        val q = queries(i)
        val got = tracer.span("workloads.query")(q.spark.collect())
        require(got.nonEmpty, s"${q.name}: empty result")
        val source = if (tracer.recording) counted else tables
        val loaded: Seq[(String, DataFrame)] = q.tables.map(n => n -> source(n))
        val before = loadedRows.sum
        tracer.span("oracle.check")(Oracle.assertEquivalent(q.spark, q.duckSql, loaded: _*))
        tracer.count("oracle.rows_loaded", loadedRows.sum - before)
      }

      override def layerCounts: Map[String, Double] = Map("synth.rows" -> rows.values.sum.toDouble)

      override def close(): Unit = spark.stop()
    }
  }
}
