package repro.workloads

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import java.util.UUID
import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.{AtomicLong, LongAdder}

/** Measured resource footprint of one real Spark workload execution — the
  * local-mode analogue of the paper's Thoth/PAT/JMX profiling substrate
  * (Sec 4.1). These are the quantities that calibrate `AppModel`s.
  */
final case class WorkloadFootprint(
    tasks: Long,
    totalTaskMs: Long,
    gcTimeMs: Long,
    shuffleWriteBytes: Long,
    shuffleReadBytes: Long,
    spilledBytes: Long,
    peakExecutionMemory: Long,
    inputRecords: Long,
) {
  def gcOverhead: Double = if (totalTaskMs == 0) 0.0 else gcTimeMs.toDouble / totalTaskMs
}

/** SparkListener that aggregates task metrics while a workload runs. */
final class MetricsCollector extends SparkListener {
  private val tasks = new LongAdder
  private val dur = new LongAdder
  private val gc = new LongAdder
  private val sw = new LongAdder
  private val sr = new LongAdder
  private val spill = new LongAdder
  private val peak = new AtomicLong(0)
  private val input = new LongAdder
  private[workloads] val marker = UUID.randomUUID().toString
  private[workloads] val markerSeen = new CountDownLatch(1)

  override def onJobStart(js: SparkListenerJobStart): Unit =
    if (js.properties != null && js.properties.getProperty(MetricsCollector.MarkerKey) == marker)
      markerSeen.countDown()

  override def onTaskEnd(te: SparkListenerTaskEnd): Unit = {
    val m = te.taskMetrics
    if (m != null) {
      tasks.increment()
      dur.add(m.executorRunTime)
      gc.add(m.jvmGCTime)
      sw.add(m.shuffleWriteMetrics.bytesWritten)
      sr.add(m.shuffleReadMetrics.totalBytesRead)
      spill.add(m.memoryBytesSpilled + m.diskBytesSpilled)
      peak.getAndUpdate(p => math.max(p, m.peakExecutionMemory))
      input.add(m.inputMetrics.recordsRead)
    }
  }

  def footprint: WorkloadFootprint = WorkloadFootprint(
    tasks.sum(), dur.sum(), gc.sum(), sw.sum(), sr.sum(), spill.sum(),
    peak.get(), input.sum())
}

object MetricsCollector {
  private val MarkerKey = "repro.metrics.marker"
  private val DrainTimeoutS = 120L

  /** Run `body` with a collector attached and return (result, footprint).
    * The footprint covers every task-end posted before `body` returned: a
    * zero-partition marker job posts its start straight to the listener bus
    * (`DAGScheduler.submitJob`) after them, and the bus delivers one
    * listener's events in order.
    */
  def profile[T](spark: SparkSession)(body: => T): (T, WorkloadFootprint) = {
    val sc = spark.sparkContext
    val mc = new MetricsCollector
    sc.addSparkListener(mc)
    try {
      val r = body
      sc.setLocalProperty(MarkerKey, mc.marker)
      try sc.emptyRDD[Int].count() finally sc.setLocalProperty(MarkerKey, null)
      if (!mc.markerSeen.await(DrainTimeoutS, TimeUnit.SECONDS))
        throw new IllegalStateException(s"listener bus did not deliver the marker job within $DrainTimeoutS s")
      (r, mc.footprint)
    } finally sc.removeSparkListener(mc)
  }
}
