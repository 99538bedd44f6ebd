package repro

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Every generator's rows depend only on its arguments, not on how many
  * partitions Spark splits the input into (the host's core count sets that
  * number in local mode).
  */
class SynthDataSpec extends SparkSpec {

  private val generators: Seq[(String, SparkSession => DataFrame)] = Seq(
    "lineitem"      -> (s => SynthData.lineitem(s, sf = 0.0005)),
    "orders"        -> (s => SynthData.orders(s, sf = 0.0005)),
    "customer"      -> (s => SynthData.customer(s, sf = 0.005)),
    "part"          -> (s => SynthData.part(s, sf = 0.005)),
    "uniformKeys"   -> (s => SynthData.uniformKeys(s, rows = 2000, nKeys = 50)),
    "textLines"     -> (s => SynthData.textLines(s, lines = 500)),
    "edges"         -> (s => SynthData.edges(s, nEdges = 2000, nNodes = 100)),
    "points"        -> (s => SynthData.points(s, n = 1000, k = 3)),
    "labeledPoints" -> (s => SynthData.labeledPoints(s, n = 1000)),
  )

  private def rowsAt(partitions: Int, gen: SparkSession => DataFrame): Seq[String] = {
    spark.conf.set("spark.sql.leafNodeDefaultParallelism", partitions.toLong)
    try gen(spark).collect().map(_.toString).toSeq.sorted
    finally spark.conf.unset("spark.sql.leafNodeDefaultParallelism")
  }

  for ((name, gen) <- generators)
    test(s"$name gives the same rows at 1, 4 and 7 input partitions") {
      val one = rowsAt(1, gen)
      assert(one.nonEmpty)
      for (p <- Seq(4, 7)) assert(rowsAt(p, gen) == one, s"$name differs at $p partitions")
    }
}
