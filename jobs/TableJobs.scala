package repro.jobs

import repro.sim.{AppModel, Hardware, Simulator}
import repro.tables.Tables

/** spark-submit entrypoints, one per reproduced table (see DESIGN.md).
  * They are driver-only programs (the cluster substrate is the simulator),
  * so they run equally under `spark-submit --class repro.jobs.Table8Job` or
  * `sbt "runMain repro.jobs.Table8Job"`. Each prints the same text as its
  * bench suite.
  */
private object TableJobsShared {
  val sim = new Simulator(Hardware.ClusterA)
}

object Table4Job {
  def main(args: Array[String]): Unit =
    println(Tables.renderTable4(Tables.table4(Hardware.ClusterA)))
}

object Table5Job {
  def main(args: Array[String]): Unit =
    println(Tables.renderTable5(Tables.table5(TableJobsShared.sim)))
}

object Table6Job {
  def main(args: Array[String]): Unit =
    println(Tables.renderTable6(Tables.table6(TableJobsShared.sim)))
}

object Table7Job {
  def main(args: Array[String]): Unit =
    println(Tables.renderTable7(Tables.table7(Hardware.ClusterA)))
}

object Table8Job {
  def main(args: Array[String]): Unit = {
    val t8 = Tables.table8(TableJobsShared.sim)
    println(Tables.renderTable8(t8))
    for (a <- AppModel.clusterASuite.map(_.name))
      println(f"$a%-10s default=${t8.defaultRuns(a).runtimeMin}%.1fmin " +
        f"exhaustive-5%%ile=${t8.top5PctileMin(a)}%.1fmin")
  }
}

object Table9Job {
  def main(args: Array[String]): Unit =
    println(Tables.renderTable9(Tables.table9(TableJobsShared.sim)))
}

object Table10Job {
  def main(args: Array[String]): Unit =
    println(Tables.renderTable10(Tables.table10(TableJobsShared.sim)))
}

/** Fig 21 headline: TPC-H on Cluster B, MaxResourceAllocation vs RelM. */
object TpchRelMJob {
  def main(args: Array[String]): Unit = {
    val (default, tuned) = Tables.tpchHeadline()
    println(Tables.renderFig21(default, tuned))
  }
}
