package repro.perfbench

/** Order statistics for the reported timings. */
object Stats {

  /** A percentile is given only when at least this many samples lie above
    * it; with fewer, the tail is too thin for the number to mean anything.
    */
  val MinBeyond = 10

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank `p`-th percentile (0 < p < 1), when `MinBeyond` samples lie above it. */
  def percentile(xs: Seq[Double], p: Double): Option[Double] = {
    require(p > 0 && p < 1, s"percentile $p")
    val s = xs.sorted
    val idx = math.ceil(p * s.size).toInt - 1
    if (s.isEmpty || s.size - (idx + 1) < MinBeyond) None else Some(s(idx))
  }
}
