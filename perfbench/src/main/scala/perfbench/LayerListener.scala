package perfbench

import scala.collection.mutable
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** Executor-side counters of one layer, summed over its Spark jobs. */
final case class LayerCounters(jobs: Long = 0, taskMs: Long = 0, gcMs: Long = 0, shuffleBytes: Long = 0)

/** Sums job and task metrics per Spark job group. The traced run sets the
  * job group to the layer's name on its own thread before calling into the
  * layer, so every job the call submits is attributed to that layer.
  */
final class LayerListener extends SparkListener {
  private val stageGroup = mutable.Map.empty[Int, String]
  private val byGroup = mutable.Map.empty[String, LayerCounters]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    group.foreach { g =>
      e.stageInfos.foreach(s => stageGroup(s.stageId) = g)
      val c = byGroup.getOrElse(g, LayerCounters())
      byGroup(g) = c.copy(jobs = c.jobs + 1)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (g <- stageGroup.get(e.stageId); m <- Option(e.taskMetrics)) {
      val c = byGroup.getOrElse(g, LayerCounters())
      byGroup(g) = c.copy(
        taskMs = c.taskMs + m.executorRunTime,
        gcMs = c.gcMs + m.jvmGCTime,
        shuffleBytes = c.shuffleBytes + m.shuffleWriteMetrics.bytesWritten)
    }
  }

  def reset(): Unit = synchronized { stageGroup.clear(); byGroup.clear() }

  def counters(group: String): LayerCounters = synchronized { byGroup.getOrElse(group, LayerCounters()) }
}

/** Runs calls under a layer's job group and accumulates, per layer, the
  * wall time during which that layer's group was the innermost one set.
  */
final class JobGroups(sc: SparkContext) {
  private val seconds = mutable.Map.empty[String, Double].withDefaultValue(0.0)
  private var open = List.empty[(String, Long)]

  def apply[T](layer: String)(f: => T): T = {
    val now = System.nanoTime()
    open.headOption.foreach { case (outer, since) => seconds(outer) += (now - since) / 1e9 }
    open = (layer, now) :: open
    sc.setJobGroup(layer, layer, interruptOnCancel = false)
    try f
    finally {
      val end = System.nanoTime()
      seconds(layer) += (end - open.head._2) / 1e9
      open = open.tail
      open match {
        case (outer, _) :: rest =>
          open = (outer, end) :: rest
          sc.setJobGroup(outer, outer, interruptOnCancel = false)
        case Nil => sc.clearJobGroup()
      }
    }
  }

  def exclusiveSeconds(layer: String): Double = seconds(layer)
}
